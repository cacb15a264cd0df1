#include "src/core/feedback_controller.hh"

#include <algorithm>
#include <cmath>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"

namespace jumanji {

FeedbackController::FeedbackController(const ControllerParams &params,
                                       double deadline,
                                       std::uint64_t initialLines,
                                       std::uint64_t panicLines,
                                       std::uint64_t minLines,
                                       std::uint64_t maxLines)
    : params_(params),
      deadline_(deadline),
      targetLines_(initialLines),
      panicLines_(panicLines),
      minLines_(minLines),
      maxLines_(maxLines)
{
    if (deadline <= 0.0)
        fatal("FeedbackController: deadline must be positive");
    if (minLines > maxLines)
        fatal("FeedbackController: minLines > maxLines");
    targetLines_ = std::clamp(targetLines_, minLines_, maxLines_);
}

bool
FeedbackController::requestCompleted(double latencyCycles)
{
    JUMANJI_ASSERT(latencyCycles >= 0.0 &&
                       std::isfinite(latencyCycles),
                   "request latency must be finite and nonnegative");
    window_.add(latencyCycles);
    if (window_.count() <= kConfigurationInterval) return false;

    // The p95 the calibrated deadline is defined on (Sec. VII).
    double tail = window_.percentile(95.0);
    update(tail);
    window_.clear();
    return true;
}

void
FeedbackController::update(double tail)
{
    lastTail_ = tail;
    double target = static_cast<double>(targetLines_);

    if (tail > params_.panicFrac * deadline_) {
        // Even short queueing spikes set the tail, so panic jumps
        // straight to a known-safe allocation. If the panic size is
        // already insufficient, keep growing from where we are.
        target = std::max(target * (1.0 + params_.stepFrac),
                          static_cast<double>(panicLines_));
        panics_++;
    } else if (tail > params_.highFrac * deadline_) {
        target *= 1.0 + params_.stepFrac;
    } else if (tail < params_.lowFrac * deadline_) {
        target *= 1.0 - params_.stepFrac;
    }

    targetLines_ = std::clamp(
        static_cast<std::uint64_t>(std::llround(target)), minLines_,
        maxLines_);
    JUMANJI_INVARIANT(targetLines_ >= minLines_ &&
                          targetLines_ <= maxLines_,
                      "controller target escaped its clamp range");
}

} // namespace jumanji
