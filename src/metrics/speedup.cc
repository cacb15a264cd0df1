#include "src/metrics/speedup.hh"

#include <cmath>

#include "src/sim/logging.hh"

namespace jumanji {

double
weightedSpeedup(const std::vector<AppProgress> &mix,
                const std::vector<AppProgress> &reference)
{
    if (mix.size() != reference.size() || mix.empty())
        fatal("weightedSpeedup: size mismatch or empty");
    double sum = 0.0;
    for (std::size_t i = 0; i < mix.size(); i++) {
        double ref = reference[i].ipc();
        if (ref <= 0.0) continue;
        sum += mix[i].ipc() / ref;
    }
    return sum / static_cast<double>(mix.size());
}

double
gmean(const std::vector<double> &values)
{
    if (values.empty()) return 1.0;
    double logSum = 0.0;
    std::size_t n = 0;
    for (double v : values) {
        if (v <= 0.0) continue;
        logSum += std::log(v);
        n++;
    }
    return n == 0 ? 1.0 : std::exp(logSum / static_cast<double>(n));
}

} // namespace jumanji
