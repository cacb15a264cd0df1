/**
 * @file
 * A key-value server as a latency-critical application.
 *
 * KvServerApp subclasses TailLatencyApp, so the whole existing LC
 * machinery — calibration, deadlines, VTB classification, the
 * apps.* stat groups, request tracing lanes — applies unchanged.
 * What changes is *where the work comes from*: each request is one
 * KV operation (read/update/scan/insert per a YCSB-style mix) on a
 * key drawn from a seeded Zipfian/latest/uniform sampler, and its
 * LLC accesses walk the store's three structures:
 *
 *   index       B-tree-ish lookup structure, ~3 nodes per descent,
 *               4 entries per line: max(16, keys/4) lines
 *   value heap  keys * valueLines lines; the per-key value block
 *   log         append-only write-ahead region (streaming)
 *
 * Per-request instruction/LLC budgets derive from the same numbers:
 * an op touches kvOpAccesses(params, op) lines, and the instruction
 * budget is back-computed from a target memory intensity, so the
 * footprint, the access stream, and the budget all agree by
 * construction.
 *
 * A bound LoadTrace drives the open-loop client through time: the
 * arrival rate follows the trace's piecewise-linear multiplier and
 * phase steps can sharpen the Zipfian skew or migrate the hot keys.
 * Completed-request latencies are additionally bucketed by trace
 * phase for the apps.kv.<phase>.{p95,p99,count} stats.
 */

#ifndef JUMANJI_WORKLOADS_KV_KV_STORE_HH
#define JUMANJI_WORKLOADS_KV_KV_STORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/workloads/kv/load_trace.hh"
#include "src/workloads/kv/zipfian.hh"
#include "src/workloads/tail_latency.hh"

namespace jumanji {

/** One KV operation class (YCSB vocabulary). */
enum class KvOp { Read, Update, Scan, Insert };

/** Operation mix as fractions summing to ~1. */
struct KvOpMix
{
    double read = 1.0;
    double update = 0.0;
    double scan = 0.0;
    double insert = 0.0;
};

/** Key-popularity distribution. */
enum class KvKeyDist { Zipfian, Latest, Uniform };

/** Static description of one KV server application. */
struct KvAppParams
{
    std::string name;
    /** Number of resident keys. */
    std::uint64_t keys = 1 << 15;
    /** Cache lines per value (value size / 64B). */
    std::uint32_t valueLines = 4;
    /** Zipfian skew of the key popularity. */
    double theta = 0.99;
    KvOpMix mix;
    /** Mean keys touched by one scan. */
    std::uint32_t scanLength = 8;
    KvKeyDist dist = KvKeyDist::Zipfian;
};

/** KV app catalog: kv_small plus the six YCSB core workloads. */
const std::vector<KvAppParams> &kvAppCatalog();

/** Catalog lookup by name; nullptr if @p name is not a KV app. */
const KvAppParams *findKvApp(const std::string &name);

bool isKvAppName(const std::string &name);
std::vector<std::string> allKvAppNames();

/** LLC lines one @p op touches (index descent + value + log). */
double kvOpAccesses(const KvAppParams &params, KvOp op);

/** Mix-weighted mean LLC accesses per request. */
double kvMixAccesses(const KvAppParams &params);

/**
 * Derives the TailAppParams (working sets, per-request budgets,
 * traits) for a KV app, so calibration and nominal-service math
 * treat it exactly like a catalog TailBench app.
 */
TailAppParams deriveKvTailParams(const KvAppParams &params);

/** Derived params for a catalog KV app. Fatal if unknown. */
const TailAppParams &kvTailAppParams(const std::string &name);

/**
 * Unified LC lookup: the TailBench catalog first, then the KV
 * catalog. Fatal if the name is in neither.
 */
const TailAppParams &lcAppParams(const std::string &name);

/** All valid LC app names (TailBench catalog + KV catalog). */
std::vector<std::string> allLcAppNames();

class KvServerApp : public TailLatencyApp
{
  public:
    /**
     * @p params must be deriveKvTailParams(@p kvParams), possibly
     * with its working sets capacity-scaled; the store's structure
     * sizes are read back from the (scaled) working sets so the
     * address regions and the advertised footprint always agree.
     */
    KvServerApp(const KvAppParams &kvParams,
                const TailAppParams &params, AppId app,
                double meanInterarrivalCycles, Rng arrivalRng);

    /**
     * Attaches the offered-load trace. @p baseInterarrivalCycles is
     * the rate at multiplier 1.0.
     */
    void bindTrace(const LoadTrace *trace, double baseInterarrivalCycles);

    /**
     * Applies the trace state at @p now: arrival rate, skew delta,
     * and key rotation. Called by the system's load agent; no-op
     * when nothing changed, so a flat trace costs nothing.
     */
    void onTraceTick(Tick now);

    void clearMeasurement() override;

    /** Latency percentile of requests that arrived in @p phase. */
    double phasePercentile(const std::string &phase, double p) const;
    std::uint64_t phaseCount(const std::string &phase) const;
    const KvAppParams &kvParams() const { return kv_; }

  protected:
    double drawWorkScale() override;
    LineAddr drawAccess(Rng &rng) override;
    void recordCompletion(Tick finish, double latency) override;

  private:
    std::uint64_t drawKey();
    LineAddr indexLine(Rng &rng) const;

    KvAppParams kv_;
    LineAddr base_ = 0;
    std::uint64_t indexLines_ = 0;
    std::uint64_t heapLines_ = 0;
    std::uint64_t effectiveKeys_ = 0;
    double mixAccesses_ = 1.0;

    ScrambledZipfianSampler zipf_;
    LatestSampler latest_;
    UniformSampler uniform_;

    KvOp op_ = KvOp::Read;
    std::uint64_t key_ = 0;
    std::uint64_t scanPos_ = 0;
    std::uint64_t logCursor_ = 0;

    const LoadTrace *trace_ = nullptr;
    double baseInterarrival_ = 0.0;
    double lastMultiplier_ = 1.0;
    double activeThetaDelta_ = 0.0;
    std::uint64_t activeRotation_ = 0;

    std::map<std::string, SampleStat> byPhase_;
};

} // namespace jumanji

#endif // JUMANJI_WORKLOADS_KV_KV_STORE_HH
