/**
 * @file
 * The simulator-wide observability layer, part 2: a scoped event
 * tracer emitting Chrome trace-event JSON (loadable in
 * chrome://tracing and Perfetto).
 *
 * Timestamps are simulated ticks written into the trace's "us" field,
 * so one trace microsecond == one core cycle. Lanes follow the
 * machine's floorplan: each traced System run allocates a process-id
 * block (beginRun) with one process for the runtime, one for cores
 * (tid == tile id), and one for banks (tid == bank id). Components
 * emit
 *   - complete events ("X") for spans (LC requests, reconfigures),
 *   - instant events ("i") for repartitions, VTB coherence walks,
 *     VM bank flushes, and deadline violations, and
 *   - counter events ("C") for per-epoch series (allocations,
 *     bank occupancy).
 *
 * Cost discipline: components hold a `Tracer *` that is null unless
 * the user asked for a trace, and every emission site goes through
 * JUMANJI_TRACE, so the hot path pays exactly one predictable branch.
 */

#ifndef JUMANJI_SIM_TRACING_HH
#define JUMANJI_SIM_TRACING_HH

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace jumanji {

/**
 * The tracer: buffers events in memory, serializes on writeTo().
 * Event order in the output follows emission order; viewers sort by
 * timestamp themselves.
 */
class Tracer
{
  public:
    /** One "args" entry; values are numeric to keep emission cheap. */
    struct Arg
    {
        const char *key;
        double value;
    };

    /**
     * Allocates the pid block for one System run and names its three
     * processes "<label> runtime" / "<label> cores" /
     * "<label> banks".
     *
     * @return The base pid; runtime lanes live on pid, core lanes on
     *         pid + 1, bank lanes on pid + 2.
     */
    std::uint32_t beginRun(const std::string &label);

    static constexpr std::uint32_t kRuntimePid = 0;
    static constexpr std::uint32_t kCoresPid = 1;
    static constexpr std::uint32_t kBanksPid = 2;
    static constexpr std::uint32_t kPidsPerRun = 3;

    /** Metadata: names thread @p tid of process @p pid. */
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string &name);

    /** A span [start, start + dur) on lane (pid, tid). */
    void complete(std::uint32_t pid, std::uint32_t tid,
                  const char *name, Tick start, Tick dur,
                  std::vector<Arg> args = {});

    /** A zero-duration marker on lane (pid, tid). */
    void instant(std::uint32_t pid, std::uint32_t tid, const char *name,
                 Tick ts, std::vector<Arg> args = {});

    /**
     * A counter series sample (one track per (pid, name)). Unlike
     * complete()/instant(), whose names must be string literals, the
     * counter name is interned: callers may pass transient storage
     * (track names are typically built per System, which the tracer
     * outlives).
     */
    void counter(std::uint32_t pid, const char *name, Tick ts,
                 double value);

    /**
     * Copies @p name into this tracer's pointer-stable interned
     * storage and returns the stable pointer. Hot emitters intern
     * their track names once at setup and then use counterInterned(),
     * so per-sample emission skips the interning lookup.
     */
    const char *internName(const char *name) { return intern(name); }

    /**
     * counter() for a name previously returned by internName() on
     * *this* tracer: no per-call interning lookup.
     */
    void counterInterned(std::uint32_t pid, const char *internedName,
                         Tick ts, double value);

    /**
     * Appends every event of @p other, remapping its pids into this
     * tracer's pid space (and re-interning counter track names, whose
     * storage dies with @p other). The driver gives each job a
     * private tracer and merges them back in job-submission order, so
     * a parallel run serializes the same trace regardless of which
     * worker ran which job or in what order they finished.
     */
    void mergeFrom(const Tracer &other);

    std::size_t eventCount() const { return events_.size(); }

    /** Serializes the whole trace as one JSON object. */
    void writeTo(std::ostream &os) const;

  private:
    struct Event
    {
        char ph = 'X';
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        const char *name = "";
        /** Metadata/process names (ph == 'M') carry a string arg. */
        std::string strArg;
        Tick ts = 0;
        Tick dur = 0;
        std::vector<Arg> args;
    };

    void push(Event e) { events_.push_back(std::move(e)); }

    /** Copies @p name into tracer-owned, pointer-stable storage. */
    const char *intern(const char *name);

    std::vector<Event> events_;
    std::set<std::string> internedNames_;
    std::uint32_t nextPid_ = 1;
};

/**
 * Emission macro: expands to one null check around the call.
 *
 *   JUMANJI_TRACE(tracer_, instant(pid_, bank, "vmFlush", now));
 */
#define JUMANJI_TRACE(tracer, call)                                    \
    do {                                                               \
        if ((tracer) != nullptr) (tracer)->call;                       \
    } while (0)

} // namespace jumanji

#endif // JUMANJI_SIM_TRACING_HH
