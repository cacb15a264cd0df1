/**
 * @file
 * Piecewise-linear offered-load traces for the KV-serving workloads.
 *
 * A LoadTrace is an ordered list of labelled phases. Each phase
 * spans a half-open tick interval [start, start+duration) and
 * carries a load multiplier that is linearly interpolated from its
 * begin value to its end value across the phase; a boundary tick
 * belongs to the phase that *starts* there. Phases can additionally
 * shift the Zipfian skew (a theta delta) or rotate the key-hash
 * (hot-key migration) — those are phase-level steps, not
 * interpolated.
 *
 * Named presets (flat, diurnal, flashcrowd, skewshift, hotkeys) are
 * built from the run's warmup/measure windows so the interesting
 * transitions land inside the measurement window. Phase labels are
 * part of the observable surface: per-phase tail-latency stats are
 * registered as apps.kv.<label>.{p95,p99,count} for the trace a run
 * uses, and driver::checkSpec resolves scenario columns against
 * those registered names.
 */

#ifndef JUMANJI_WORKLOADS_KV_LOAD_TRACE_HH
#define JUMANJI_WORKLOADS_KV_LOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace jumanji {

/** One labelled segment of a load trace. */
struct TracePhase
{
    std::string label;
    Tick start = 0;
    Tick duration = 0;
    /** Load multiplier at the first tick of the phase. */
    double beginMultiplier = 1.0;
    /** Load multiplier approached at the end of the phase. */
    double endMultiplier = 1.0;
    /** Added to the app's base Zipfian theta for this phase. */
    double thetaDelta = 0.0;
    /** Key-hash rotation active during this phase (0 = none). */
    std::uint64_t keyRotation = 0;
};

class LoadTrace
{
  public:
    /** Appends a phase after the current last one. */
    void addPhase(const std::string &label, Tick duration,
                  double beginMultiplier, double endMultiplier,
                  double thetaDelta = 0.0,
                  std::uint64_t keyRotation = 0);

    /**
     * Linearly interpolated load multiplier at @p now. Before the
     * first phase this is the first begin value; at or past the
     * horizon it is the last end value.
     */
    double multiplierAt(Tick now) const;

    /** Label of the phase containing @p now (clamped at the ends). */
    const std::string &phaseLabelAt(Tick now) const;

    double thetaDeltaAt(Tick now) const;
    std::uint64_t keyRotationAt(Tick now) const;

    /** Distinct phase labels, in first-appearance order. */
    std::vector<std::string> phaseLabels() const;

    const std::vector<TracePhase> &phases() const { return phases_; }
    bool empty() const { return phases_.empty(); }

    /** One past the last tick covered by any phase. */
    Tick horizon() const;

  private:
    const TracePhase &phaseAt(Tick now) const;

    std::vector<TracePhase> phases_;
};

/**
 * Builds a named preset trace spanning @p warmupTicks +
 * @p measureTicks. @p peakMultiplier scales the peak/spike load
 * relative to the base rate. Fatal on an unknown name.
 */
LoadTrace loadTraceFromName(const std::string &name, Tick warmupTicks,
                            Tick measureTicks, double peakMultiplier);

/** The preset names accepted by loadTraceFromName(). */
const std::vector<std::string> &allLoadTraceNames();

} // namespace jumanji

#endif // JUMANJI_WORKLOADS_KV_LOAD_TRACE_HH
