/**
 * @file
 * The application model interface driven by CoreModel.
 *
 * An AppModel is a generator of execution steps. Each step is either
 * a burst of instructions optionally ending in an LLC access (the
 * post-L2 miss stream; L1/L2 filtering is folded into per-app hit
 * fractions used for energy accounting), or an idle period (a
 * latency-critical server waiting for the next request).
 */

#ifndef JUMANJI_CPU_APP_MODEL_HH
#define JUMANJI_CPU_APP_MODEL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "src/sim/rng.hh"
#include "src/sim/types.hh"

namespace jumanji {

/** One unit of application progress. */
struct AppStep
{
    enum class Kind
    {
        /** Execute `instrs` instructions; then access `line` if set. */
        Execute,
        /** Sleep until `wakeTick` (request queue empty). */
        Idle,
    };

    Kind kind = Kind::Execute;
    std::uint64_t instrs = 0;
    std::optional<LineAddr> access;
    Tick wakeTick = 0;

    static AppStep
    execute(std::uint64_t instrs, std::optional<LineAddr> access)
    {
        AppStep s;
        s.kind = Kind::Execute;
        s.instrs = instrs;
        s.access = access;
        return s;
    }

    static AppStep
    idleUntil(Tick wake)
    {
        AppStep s;
        s.kind = Kind::Idle;
        s.wakeTick = wake;
        return s;
    }
};

/** Static per-app characteristics used for timing and energy. */
struct AppTraits
{
    /** Core IPC when no LLC access is outstanding. */
    double baseIpc = 2.0;
    /** Fraction of LLC access latency exposed as stall (1/MLP). */
    double stallFactor = 0.6;
    /** L1 accesses per instruction (for energy accounting). */
    double l1PerInstr = 0.35;
    /** Fraction of L1 accesses missing to L2. */
    double l1MissFrac = 0.06;
    /** Fraction of L2 accesses missing to LLC (drives APKI). */
    double l2MissFrac = 0.25;
};

/**
 * Abstract application. Implementations: SpecLikeApp (batch),
 * TailLatencyApp (latency-critical server), attacker/victim apps.
 */
class AppModel
{
  public:
    virtual ~AppModel() = default;

    /** Display name, e.g. "429.mcf" or "xapian". */
    virtual const std::string &name() const = 0;

    /** Produces the next step. @p now is current simulated time. */
    virtual AppStep next(Tick now, Rng &rng) = 0;

    /**
     * Called when the step's LLC access (if any) completed.
     * @p finish is the tick at which the access's data returned.
     */
    virtual void onAccessComplete(Tick finish) { (void)finish; }

    /**
     * Timing/energy traits. The reference must stay valid for the
     * app's lifetime: CoreModel resolves it once.
     */
    virtual const AppTraits &traits() const = 0;

    /** True for latency-critical (deadline-bearing) applications. */
    virtual bool isLatencyCritical() const { return false; }
};

} // namespace jumanji

#endif // JUMANJI_CPU_APP_MODEL_HH
