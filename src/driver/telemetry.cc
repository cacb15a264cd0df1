#include "src/driver/telemetry.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/driver/env.hh"
#include "src/sim/json.hh"

namespace jumanji {
namespace driver {

double
telemetryNowSec()
{
    // The anchor is the first call, so timestamps are small,
    // positive, and meaningless across processes — they only ever
    // appear as differences (durations) or relative offsets.
    static const std::chrono::steady_clock::time_point anchor =
        std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - anchor)
        .count();
}

TelemetryOptions
telemetryOptionsFromEnv()
{
    TelemetryOptions opts;
    if (const char *env = std::getenv("JUMANJI_EVENTS"))
        opts.eventsPath = env;
    opts.heartbeatMs = heartbeatMsFromEnv();
    return opts;
}

Telemetry::Telemetry(TelemetryOptions options)
    : options_(std::move(options))
{
    if (options_.eventsPath.empty()) return;
    events_.open(options_.eventsPath, std::ios::app);
    if (!events_.is_open())
        warnOnce("events:" + options_.eventsPath,
                 "cannot open event log \"" + options_.eventsPath +
                     "\"; events stay off");
}

void
Telemetry::beginBatch(std::uint64_t totalJobs)
{
    totalJobs_ = totalJobs;
    batchStart_ = telemetryNowSec();
    jobsDone_.store(0);
    accessesDone_.store(0);
    lastBeatMs_.store(
        static_cast<std::uint64_t>(batchStart_ * 1000.0));
}

void
Telemetry::jobDone(std::uint64_t accesses)
{
    const std::uint64_t done = jobsDone_.fetch_add(1) + 1;
    const std::uint64_t acc =
        accessesDone_.fetch_add(accesses) + accesses;
    if (!heartbeatEnabled()) return;
    const double now = telemetryNowSec();
    const std::uint64_t nowMs =
        static_cast<std::uint64_t>(now * 1000.0);
    std::uint64_t last = lastBeatMs_.load();
    if (done < totalJobs_ && nowMs - last < options_.heartbeatMs)
        return;
    // One winner per beat window; losers raced a concurrent beat
    // that already reported this progress.
    if (!lastBeatMs_.compare_exchange_strong(last, nowMs)) return;
    const double elapsed = now - batchStart_;
    const double rate =
        elapsed > 0.0 ? static_cast<double>(acc) / elapsed : 0.0;
    const double eta =
        done > 0 ? elapsed / static_cast<double>(done) *
                       static_cast<double>(totalJobs_ - done)
                 : 0.0;
    // A single stderr write per beat: progress never shears through
    // the stdout tables, and concurrent beats stay line-atomic.
    std::fprintf(stderr,
                 "[jumanji] %llu/%llu jobs  %.3g accesses/s  "
                 "elapsed %.1fs  eta %.1fs\n",
                 static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(totalJobs_), rate,
                 elapsed, eta);
}

void
Telemetry::jobEvent(JobId id, const std::string &label,
                    const JobTiming &t)
{
    if (!eventsEnabled()) return;
    JsonValue e = JsonValue::makeObject();
    e.set("type", JsonValue::makeString("job"));
    e.set("id", JsonValue::makeU64(id));
    e.set("label", JsonValue::makeString(label));
    e.set("worker", JsonValue::makeU64(t.worker));
    e.set("cached", JsonValue::makeBool(t.cached));
    e.set("ok", JsonValue::makeBool(t.ok));
    const double wait =
        t.startAt > t.submitAt ? t.startAt - t.submitAt : 0.0;
    const double simulate =
        t.endAt > t.startAt ? t.endAt - t.startAt : 0.0;
    e.set("queue_wait_s", JsonValue::makeNumber(t.cached ? 0.0 : wait));
    e.set("probe_s", JsonValue::makeNumber(t.probeSec));
    e.set("simulate_s", JsonValue::makeNumber(simulate));
    e.set("accesses", JsonValue::makeU64(t.accesses));
    events_ << e.dump(-1) << "\n";
}

void
Telemetry::calibrationEvent(const std::string &lcName,
                            const JobTiming &t)
{
    if (!eventsEnabled()) return;
    JsonValue e = JsonValue::makeObject();
    e.set("type", JsonValue::makeString("calibration"));
    e.set("lc", JsonValue::makeString(lcName));
    e.set("worker", JsonValue::makeU64(t.worker));
    e.set("cached", JsonValue::makeBool(t.cached));
    const double wait =
        t.startAt > t.submitAt ? t.startAt - t.submitAt : 0.0;
    const double compute =
        t.endAt > t.startAt ? t.endAt - t.startAt : 0.0;
    e.set("queue_wait_s", JsonValue::makeNumber(t.cached ? 0.0 : wait));
    e.set("compute_s", JsonValue::makeNumber(compute));
    events_ << e.dump(-1) << "\n";
}

void
Telemetry::runEvent(const char *kind, std::uint64_t total,
                    std::uint64_t simulated, std::uint64_t cached,
                    std::uint64_t failed, std::uint32_t workers,
                    double wallSec, double mergeSec)
{
    if (!eventsEnabled()) return;
    JsonValue e = JsonValue::makeObject();
    e.set("type", JsonValue::makeString("run"));
    e.set("kind", JsonValue::makeString(kind));
    e.set("jobs", JsonValue::makeU64(total));
    e.set("simulated", JsonValue::makeU64(simulated));
    e.set("cached", JsonValue::makeU64(cached));
    e.set("failed", JsonValue::makeU64(failed));
    e.set("workers", JsonValue::makeU64(workers));
    e.set("wall_s", JsonValue::makeNumber(wallSec));
    e.set("merge_s", JsonValue::makeNumber(mergeSec));
    events_ << e.dump(-1) << "\n";
    events_.flush();
}

} // namespace driver
} // namespace jumanji
