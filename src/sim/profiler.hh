/**
 * @file
 * Host-side profiling, part 1 of 2: a hierarchical scoped wall-clock
 * profiler for the simulator's *own* execution time (part 2, the
 * orchestrator's per-job telemetry, lives in src/driver/telemetry.hh).
 *
 * This subsystem is deliberately OUTSIDE the deterministic stats
 * stream. StatRegistry and the --selfcheck fingerprint describe the
 * simulated machine and must be reproducible from (seed, config)
 * alone; the profiler measures the host — wall seconds spent
 * calibrating, simulating, repartitioning. Nothing recorded here is
 * ever folded into a fingerprint, a golden table, or a cache key.
 *
 * The discipline mirrors StatRegistry all the same: scopes carry
 * dotted lowercase names ("sim.epoch.repartition"), names are
 * interned once per site into small dense ids, and reports are
 * sorted by name so identical measurements serialize identically.
 *
 * Instrumentation sites use JUMANJI_PROF_SCOPE("name"). Like
 * JUMANJI_TRACE, the macro holds itself to the <2% bar on the
 * fig13-small bench: disabled at runtime it costs one predictable
 * branch per scope, and under JUMANJI_DISABLE_PROFILING it expands
 * to nothing at all.
 *
 * Threading model: simulation code is single-threaded per driver
 * worker, so every thread owns a private Profiler
 * (Profiler::current()) and records into it without synchronization.
 * Cross-thread aggregation is a merge problem, not a locking
 * problem: workers call flushThreadProfile() when they finish (the
 * driver's parallelFor serializes those calls under its own lock —
 * this file must stay free of threading primitives per
 * concurrency-routing), and reports are written from
 * aggregateProfile() once the workers have joined. profiler.cc is,
 * with driver/telemetry.cc, one of exactly two sanctioned wall-clock
 * readers in src/ (clock-routing).
 */

#ifndef JUMANJI_SIM_PROFILER_HH
#define JUMANJI_SIM_PROFILER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace jumanji {
namespace prof {

/** Dense per-profiler scope index from intern(). */
using ScopeId = std::uint32_t;

/** One scope's accumulated totals. Times are integer nanoseconds. */
struct ScopeTotals
{
    std::string name;
    std::uint64_t calls = 0;
    /** Wall time with children; recursion is counted once. */
    std::uint64_t inclusiveNs = 0;
    /** Wall time minus time spent in directly nested scopes. */
    std::uint64_t exclusiveNs = 0;
};

class Profiler
{
  public:
    /**
     * Monotonic nanosecond source. Swappable so tests can drive the
     * nesting math with exact fake timestamps and compare reports
     * byte-for-byte.
     */
    using ClockFn = std::uint64_t (*)();

    Profiler();

    /**
     * Returns the id for @p name, allocating one on first use. Ids
     * are stable for the profiler's lifetime (reset() keeps them),
     * which is what lets JUMANJI_PROF_SCOPE cache the id in a
     * static thread_local and skip the map lookup on every entry.
     */
    ScopeId intern(const std::string &name);
    const std::string &name(ScopeId id) const;

    /** Opens/closes a scope. leave() must match the innermost enter. */
    void enter(ScopeId id);
    void leave(ScopeId id);

    /** True when no closed scope has been recorded. */
    bool empty() const;
    /** Currently open scopes (0 between top-level sections). */
    std::size_t depth() const { return stack_.size(); }

    /**
     * Totals for every scope with at least one closed call, sorted
     * by name.
     */
    std::vector<ScopeTotals> totals() const;

    /** Adds @p other's totals into this profiler, matching by name. */
    void mergeFrom(const Profiler &other);

    /** Zeroes every accumulator; interned ids remain valid. */
    void reset();

    void setClock(ClockFn clock);

    /**
     * Reports, sorted by scope name. writeJson emits
     * {"schema": "jumanji-profile-v1", "scopes": [...]} with
     * inclusive_ns/exclusive_ns as exact integers plus _s doubles
     * for human consumption.
     */
    void writeText(std::ostream &os) const;
    void writeJson(std::ostream &os) const;

    /** The calling thread's private profiler. */
    static Profiler &current();

  private:
    struct Slot
    {
        std::string name;
        std::uint64_t calls = 0;
        std::uint64_t inclusiveNs = 0;
        std::uint64_t exclusiveNs = 0;
        /** Open nesting depth; inclusive time closes at 0. */
        std::uint32_t open = 0;
    };
    struct Frame
    {
        ScopeId id;
        std::uint64_t startNs;
        /** Nanoseconds spent in scopes nested directly inside. */
        std::uint64_t childNs;
    };

    std::map<std::string, ScopeId> ids_;
    std::vector<Slot> slots_;
    std::vector<Frame> stack_;
    ClockFn clock_;
};

/**
 * Process-wide master switch, off by default. Flip it before worker
 * threads start (the CLI does so while parsing --profile): scopes
 * opened while disabled record nothing.
 */
void setProfilingEnabled(bool enabled);
bool profilingEnabled();

/**
 * The process-wide aggregate that reports are written from. Access
 * is NOT synchronized here: callers serialize, which in practice
 * means parallelFor flushes each exiting worker under one lock and
 * the main thread reads only after the workers have joined.
 */
Profiler &aggregateProfile();

/**
 * Merges the calling thread's profiler into aggregateProfile() and
 * resets it. No-op while the thread has scopes still open.
 */
void flushThreadProfile();

/**
 * RAII guard behind JUMANJI_PROF_SCOPE. Samples the enable flag
 * once on entry so a scope that outlives a flag flip stays balanced.
 */
class ProfScope
{
  public:
    explicit ProfScope(ScopeId id) : id_(id), armed_(profilingEnabled())
    {
        if (armed_) Profiler::current().enter(id_);
    }
    ~ProfScope()
    {
        if (armed_) Profiler::current().leave(id_);
    }
    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ScopeId id_;
    bool armed_;
};

} // namespace prof
} // namespace jumanji

#define JUMANJI_PROF_CONCAT2(a, b) a##b
#define JUMANJI_PROF_CONCAT(a, b) JUMANJI_PROF_CONCAT2(a, b)

#if defined(JUMANJI_DISABLE_PROFILING)
/** Compiled out: no statics, no branch, no clock. */
#define JUMANJI_PROF_SCOPE(name) static_cast<void>(0)
#else
/**
 * Opens the dotted-named scope until the end of the enclosing block.
 * The id is interned once per thread per site; after that an entry
 * costs one branch when profiling is disabled.
 */
#define JUMANJI_PROF_SCOPE(name)                                       \
    static thread_local const ::jumanji::prof::ScopeId                 \
        JUMANJI_PROF_CONCAT(jumanjiProfId_, __LINE__) =                \
            ::jumanji::prof::Profiler::current().intern(name);         \
    ::jumanji::prof::ProfScope JUMANJI_PROF_CONCAT(jumanjiProfScope_,  \
                                                   __LINE__)(          \
        JUMANJI_PROF_CONCAT(jumanjiProfId_, __LINE__))
#endif

#endif // JUMANJI_SIM_PROFILER_HH
