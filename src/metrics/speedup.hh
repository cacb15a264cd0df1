/**
 * @file
 * Weighted-speedup accounting (Sec. VII, performance metrics).
 *
 * The paper measures batch performance as weighted speedup with a
 * fixed-work methodology similar to FIESTA [25]: each app's progress
 * is compared at equal work against an isolated (or baseline) run.
 * We provide the standard equal-interval formulation,
 *   WS = (1/N) * sum_i IPC_i^mix / IPC_i^ref,
 * plus a gmean helper for aggregating over mixes.
 */

#ifndef JUMANJI_METRICS_SPEEDUP_HH
#define JUMANJI_METRICS_SPEEDUP_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace jumanji {

/** One app's progress in a measured interval. */
struct AppProgress
{
    std::uint64_t instrs = 0;
    Tick cycles = 0;

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instrs) /
                                 static_cast<double>(cycles);
    }
};

/** Arithmetic-mean weighted speedup of mix vs. reference IPCs. */
double weightedSpeedup(const std::vector<AppProgress> &mix,
                       const std::vector<AppProgress> &reference);

/** Geometric mean of a vector of ratios. */
double gmean(const std::vector<double> &values);

} // namespace jumanji

#endif // JUMANJI_METRICS_SPEEDUP_HH
