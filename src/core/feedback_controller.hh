/**
 * @file
 * The tail-latency feedback controller (paper Sec. V-C, Listing 1).
 *
 * Every completed request's latency is buffered; once
 * kConfigurationInterval requests have completed, the controller
 * computes the recent tail (95th percentile) and adjusts the
 * application's LLC allocation:
 *   - tail > panicFrac * deadline  -> boost to the panic size,
 *   - tail > highFrac  * deadline  -> grow by stepFrac,
 *   - tail < lowFrac   * deadline  -> shrink by stepFrac,
 *   - otherwise                    -> hold.
 */

#ifndef JUMANJI_CORE_FEEDBACK_CONTROLLER_HH
#define JUMANJI_CORE_FEEDBACK_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "src/sim/stats.hh"

namespace jumanji {

/** Controller tuning (Fig. 9 sweeps these). */
struct ControllerParams
{
    /** Shrink when tail < lowFrac * deadline. */
    double lowFrac = 0.85;
    /** Grow when tail > highFrac * deadline. */
    double highFrac = 0.95;
    /** Panic when tail > panicFrac * deadline. */
    double panicFrac = 1.10;
    /** Multiplicative step for grow/shrink. */
    double stepFrac = 0.10;
};

/**
 * One controller instance per latency-critical application.
 * Sizes are in cache lines.
 */
class FeedbackController
{
  public:
    /** Requests per controller update (Listing 1). */
    static constexpr std::uint32_t kConfigurationInterval = 20;

    /**
     * @param params Tuning parameters.
     * @param deadline Tail-latency deadline, in cycles.
     * @param initialLines Starting allocation.
     * @param panicLines "Canonical safe size" (1/8 LLC in the paper).
     * @param minLines / @param maxLines Clamping bounds.
     */
    FeedbackController(const ControllerParams &params, double deadline,
                       std::uint64_t initialLines,
                       std::uint64_t panicLines, std::uint64_t minLines,
                       std::uint64_t maxLines);

    /**
     * Records a completed request (Listing 1's RequestCompleted).
     * @return true if the controller updated the allocation.
     */
    bool requestCompleted(double latencyCycles);

    /** Current allocation target, in lines. */
    std::uint64_t targetLines() const { return targetLines_; }

    /** Deadline in cycles. */
    double deadline() const { return deadline_; }
    void setDeadline(double d) { deadline_ = d; }

    /** Most recent measured tail (0 until first update). */
    double lastTail() const { return lastTail_; }

    /** Number of panic boosts so far. */
    std::uint64_t panics() const { return panics_; }

    const ControllerParams &params() const { return params_; }

  private:
    void update(double tail);

    ControllerParams params_;
    double deadline_;
    std::uint64_t targetLines_;
    std::uint64_t panicLines_;
    std::uint64_t minLines_;
    std::uint64_t maxLines_;

    SampleStat window_;
    double lastTail_ = 0.0;
    std::uint64_t panics_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_CORE_FEEDBACK_CONTROLLER_HH
