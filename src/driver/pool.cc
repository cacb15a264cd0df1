#include "src/driver/pool.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/profiler.hh"

namespace jumanji {
namespace driver {

void
parallelFor(std::size_t n, std::uint32_t workers,
            const std::function<void(std::size_t, WorkerId)> &body)
{
    // The profiler is lock-free by design (simulation code may not
    // hold threading primitives), so the exclusion around the shared
    // aggregate lives here, with the threads.
    static std::mutex profileFlushMutex;
    const std::size_t threads =
        std::min<std::size_t>(std::max<std::uint32_t>(workers, 1), n);
    std::atomic<std::size_t> next{0};
    // Declared after `next`: ~jthread joins every started thread
    // before the counter goes away, on the exception path too.
    std::vector<std::jthread> running;
    running.reserve(threads);
    for (WorkerId w = 0; w < threads; w++)
        running.emplace_back([&, w] {
            for (std::size_t i = next++; i < n; i = next++) body(i, w);
            std::lock_guard<std::mutex> lock(profileFlushMutex);
            prof::flushThreadProfile();
        });
    for (std::jthread &t : running) t.join();
}

} // namespace driver
} // namespace jumanji
