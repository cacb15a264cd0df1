/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every binary prints the rows/series of one table or figure from
 * the paper. A spec-based exhibit is one scenario document under
 * examples/scenarios/; when the generic table renderer prints it,
 * `jumanji_cli --scenario <file>` is its only runner, and the
 * binaries here are left for the exhibits with their own table
 * format (fig15, table1, the ablations), which load
 * their file with scenario() and print from SpecRun::results, and
 * for the exhibits that drive a System by hand. Scale knobs, parsed
 * by src/driver/env.hh (a malformed value warns once and falls
 * back):
 *   JUMANJI_MIXES=<n>      random batch mixes per configuration
 *   JUMANJI_SEED=<n>       base seed
 *   JUMANJI_JOBS=<n>       driver worker threads (default 1; output
 *                          is byte-identical for any value)
 *   JUMANJI_CACHE_DIR=<d>  on-disk result cache (default: off)
 *   JUMANJI_EVENTS=<f>     append one JSONL telemetry event per
 *                          calibration/job/run (default: off)
 *   JUMANJI_HEARTBEAT_MS=<n>  stderr progress heartbeat period for
 *                          long sweeps (default: 0 = off)
 *   JUMANJI_KV_LOAD_SCALE=<x>  scales the offered load of every KV
 *                          app in a scenario, range (0, 1e3]
 *                          (default: 1.0; see driver::kvLoadScaleFromEnv)
 */

#ifndef JUMANJI_BENCH_BENCH_COMMON_HH
#define JUMANJI_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "src/driver/env.hh"
#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"

namespace jumanji {
namespace bench {

/** Standard bench-scale config with env seed. */
inline SystemConfig
benchConfig()
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = driver::seedFromEnv();
    return cfg;
}

inline void
header(const std::string &figure, const std::string &caption)
{
    std::printf("==========================================================\n");
    std::printf("%s — %s\n", figure.c_str(), caption.c_str());
    std::printf("==========================================================\n");
}

inline void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

/**
 * The exhibit's scenario document, examples/scenarios/@p file in the
 * source tree this binary was built from.
 */
inline driver::ExperimentSpec
scenario(const std::string &file)
{
    return driver::ExperimentSpec::fromFile(
        std::string(JUMANJI_SOURCE_DIR) + "/examples/scenarios/" + file);
}

/**
 * Runs a spec through the process-wide orchestrator, configured from
 * the env knobs above (driver::orchestratorOptionsFromEnv), and
 * returns the plan + results in job order. One orchestrator serves
 * the whole binary: every spec it runs shares one result cache and
 * one event log.
 */
inline driver::SpecRun
runSpec(const driver::ExperimentSpec &spec)
{
    static driver::Orchestrator orch(driver::orchestratorOptionsFromEnv());
    return driver::runSpec(spec, orch);
}

} // namespace bench
} // namespace jumanji

#endif // JUMANJI_BENCH_BENCH_COMMON_HH
