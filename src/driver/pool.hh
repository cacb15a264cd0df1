/**
 * @file
 * parallelFor: the driver's one way to run a task list on threads.
 * Every list it runs is complete before the first worker starts, so a
 * shared counter is all the scheduling it needs.
 */

#ifndef JUMANJI_DRIVER_POOL_HH
#define JUMANJI_DRIVER_POOL_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace jumanji {
namespace driver {

using WorkerId = std::uint32_t;

/**
 * Runs body(i, w) once for every i in [0, n) on min(workers, n)
 * threads (workers == 0 counts as 1), w being the running thread's
 * id. Threads take indices in ascending order, so one worker runs
 * them in order 0, 1, ..., n-1. Each thread flushes its profiler into
 * prof::aggregateProfile() on exit. Returns once every thread has
 * joined, so the body's writes are then visible to the caller.
 * @p body must not throw.
 */
void parallelFor(std::size_t n, std::uint32_t workers,
                 const std::function<void(std::size_t, WorkerId)> &body);

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_POOL_HH
