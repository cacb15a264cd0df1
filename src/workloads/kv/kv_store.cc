#include "src/workloads/kv/kv_store.hh"

#include <algorithm>
#include <cmath>

#include "src/sim/logging.hh"

namespace jumanji {

namespace {

/** Index nodes touched per key lookup (root is L1-resident). */
constexpr double kIndexDepth = 3.0;
/** Target LLC accesses per kilo-instruction while serving. */
constexpr double kTargetApki = 32.0;

std::vector<KvAppParams>
buildKvCatalog()
{
    std::vector<KvAppParams> apps;
    auto add = [&](std::string name, std::uint64_t keys,
                   std::uint32_t valueLines, KvOpMix mix,
                   std::uint32_t scanLength, KvKeyDist dist) {
        KvAppParams p;
        p.name = std::move(name);
        p.keys = keys;
        p.valueLines = valueLines;
        p.mix = mix;
        p.scanLength = scanLength;
        p.dist = dist;
        apps.push_back(std::move(p));
    };

    // kv_small is the CI smoke app: a ~1.6 MB store (modest next to
    // masstree's 2 MB) with the read-mostly YCSB-B mix, cheap enough
    // for the testTiny preset.
    add("kv_small", 8192, 3, {0.95, 0.05, 0.0, 0.0}, 8,
        KvKeyDist::Zipfian);
    // The six YCSB core workloads over a ~8.5 MB store. F's
    // read-modify-writes are modelled as updates (the read half is
    // the same index+value walk).
    add("kv_ycsb_a", 32768, 4, {0.50, 0.50, 0.0, 0.0}, 8,
        KvKeyDist::Zipfian);
    add("kv_ycsb_b", 32768, 4, {0.95, 0.05, 0.0, 0.0}, 8,
        KvKeyDist::Zipfian);
    add("kv_ycsb_c", 32768, 4, {1.00, 0.00, 0.0, 0.0}, 8,
        KvKeyDist::Zipfian);
    add("kv_ycsb_d", 32768, 4, {0.95, 0.00, 0.0, 0.05}, 8,
        KvKeyDist::Latest);
    add("kv_ycsb_e", 32768, 4, {0.00, 0.00, 0.95, 0.05}, 16,
        KvKeyDist::Zipfian);
    add("kv_ycsb_f", 32768, 4, {0.50, 0.50, 0.0, 0.0}, 8,
        KvKeyDist::Zipfian);
    return apps;
}

} // namespace

const std::vector<KvAppParams> &
kvAppCatalog()
{
    static const std::vector<KvAppParams> catalog = buildKvCatalog();
    return catalog;
}

const KvAppParams *
findKvApp(const std::string &name)
{
    for (const auto &p : kvAppCatalog())
        if (p.name == name) return &p;
    return nullptr;
}

bool
isKvAppName(const std::string &name)
{
    return findKvApp(name) != nullptr;
}

std::vector<std::string>
allKvAppNames()
{
    std::vector<std::string> names;
    for (const auto &p : kvAppCatalog()) names.push_back(p.name);
    return names;
}

double
kvOpAccesses(const KvAppParams &params, KvOp op)
{
    double value = params.valueLines;
    switch (op) {
    case KvOp::Read: return kIndexDepth + value;
    case KvOp::Update: return kIndexDepth + value + 1.0; // + log
    case KvOp::Scan:
        // One descent, then half the value lines of scanLength
        // consecutive keys (short rows dominate).
        return kIndexDepth +
               std::max(1.0, params.scanLength * value / 2.0);
    case KvOp::Insert:
        return kIndexDepth + value + 2.0; // + log + index update
    }
    return kIndexDepth + value;
}

double
kvMixAccesses(const KvAppParams &params)
{
    const KvOpMix &m = params.mix;
    double total = m.read + m.update + m.scan + m.insert;
    if (total <= 0.0)
        fatal("KvAppParams " + params.name + ": empty op mix");
    return (m.read * kvOpAccesses(params, KvOp::Read) +
            m.update * kvOpAccesses(params, KvOp::Update) +
            m.scan * kvOpAccesses(params, KvOp::Scan) +
            m.insert * kvOpAccesses(params, KvOp::Insert)) /
           total;
}

TailAppParams
deriveKvTailParams(const KvAppParams &params)
{
    std::uint64_t indexLines =
        std::max<std::uint64_t>(16, params.keys / 4);
    std::uint64_t heapLines = params.keys * params.valueLines;
    std::uint64_t logLines =
        std::max<std::uint64_t>(64, params.keys / 8);

    double accesses = kvMixAccesses(params);
    auto instrs = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                std::llround(accesses * 1000.0 / kTargetApki)));

    TailAppParams tail;
    tail.name = params.name;
    tail.instrsPerRequest = instrs;
    tail.apki =
        accesses * 1000.0 / static_cast<double>(instrs);
    // heavyFrac/heavyScale are unused (KvServerApp draws op types
    // instead) but keep the defaults so nominal math stays sane.
    // Working sets in AddressStream order: index, value heap, log.
    // The index is hot (every op descends it); the heap's hot front
    // mirrors the Zipfian key popularity.
    tail.workingSets = {{indexLines, 3.0, false, 0.5},
                        {heapLines, 6.0, false, 0.35},
                        {logLines, 1.0, true, 0.0}};
    tail.traits.baseIpc = 1.2;
    tail.traits.stallFactor = 0.85;
    return tail;
}

const TailAppParams &
kvTailAppParams(const std::string &name)
{
    static const std::vector<TailAppParams> derived = [] {
        std::vector<TailAppParams> all;
        for (const auto &p : kvAppCatalog())
            all.push_back(deriveKvTailParams(p));
        return all;
    }();
    for (const auto &p : derived)
        if (p.name == name) return p;
    fatal("unknown KV app: " + name);
}

const TailAppParams &
lcAppParams(const std::string &name)
{
    for (const auto &p : tailAppCatalog())
        if (p.name == name) return p;
    if (isKvAppName(name)) return kvTailAppParams(name);
    fatal("unknown latency-critical app: " + name);
}

std::vector<std::string>
allLcAppNames()
{
    std::vector<std::string> names;
    for (const auto &p : tailAppCatalog()) names.push_back(p.name);
    for (const auto &name : allKvAppNames()) names.push_back(name);
    return names;
}

KvServerApp::KvServerApp(const KvAppParams &kvParams,
                         const TailAppParams &params, AppId app,
                         double meanInterarrivalCycles,
                         Rng arrivalRng)
    : TailLatencyApp(params, app, meanInterarrivalCycles,
                     arrivalRng),
      kv_(kvParams),
      base_(appAddressBase(app)),
      // Region sizes come from the (possibly capacity-scaled)
      // working sets, not the raw catalog numbers, so the store the
      // requests walk is exactly the footprint the runtime sees.
      indexLines_(params.workingSets.at(0).lines),
      heapLines_(params.workingSets.at(1).lines),
      effectiveKeys_(std::max<std::uint64_t>(
          64, params.workingSets.at(1).lines / kvParams.valueLines)),
      mixAccesses_(kvMixAccesses(kvParams)),
      zipf_(effectiveKeys_, kvParams.theta),
      latest_(effectiveKeys_, kvParams.theta),
      uniform_(effectiveKeys_)
{
    if (params.workingSets.size() != 3 ||
        !params.workingSets.at(2).streaming)
        fatal("KvServerApp " + kv_.name +
              ": params must come from deriveKvTailParams");
}

void
KvServerApp::bindTrace(const LoadTrace *trace,
                       double baseInterarrivalCycles)
{
    trace_ = trace;
    baseInterarrival_ = baseInterarrivalCycles;
    lastMultiplier_ = 1.0;
}

void
KvServerApp::onTraceTick(Tick now)
{
    if (trace_ == nullptr || trace_->empty()) return;
    double mult = trace_->multiplierAt(now);
    if (mult != lastMultiplier_) {
        setMeanInterarrival(baseInterarrival_ / mult, now);
        lastMultiplier_ = mult;
    }
    double delta = trace_->thetaDeltaAt(now);
    if (delta != activeThetaDelta_) {
        zipf_.setTheta(kv_.theta + delta);
        activeThetaDelta_ = delta;
    }
    std::uint64_t rotation = trace_->keyRotationAt(now);
    if (rotation != activeRotation_) {
        zipf_.setRotation(rotation);
        activeRotation_ = rotation;
    }
}

void
KvServerApp::clearMeasurement()
{
    TailLatencyApp::clearMeasurement();
    byPhase_.clear();
}

double
KvServerApp::phasePercentile(const std::string &phase,
                             double p) const
{
    auto it = byPhase_.find(phase);
    if (it == byPhase_.end()) return 0.0;
    return it->second.percentile(p);
}

std::uint64_t
KvServerApp::phaseCount(const std::string &phase) const
{
    auto it = byPhase_.find(phase);
    if (it == byPhase_.end()) return 0;
    return it->second.raw().size();
}

std::uint64_t
KvServerApp::drawKey()
{
    switch (kv_.dist) {
    case KvKeyDist::Zipfian: return zipf_.draw(heavyRng());
    case KvKeyDist::Latest: return latest_.draw(heavyRng());
    case KvKeyDist::Uniform: return uniform_.draw(heavyRng());
    }
    return zipf_.draw(heavyRng());
}

double
KvServerApp::drawWorkScale()
{
    const KvOpMix &m = kv_.mix;
    double total = m.read + m.update + m.scan + m.insert;
    double pick = heavyRng().uniform() * total;
    if (pick < m.read)
        op_ = KvOp::Read;
    else if (pick < m.read + m.update)
        op_ = KvOp::Update;
    else if (pick < m.read + m.update + m.scan)
        op_ = KvOp::Scan;
    else
        op_ = KvOp::Insert;

    key_ = drawKey();
    scanPos_ = 0;
    if (op_ == KvOp::Insert && kv_.dist == KvKeyDist::Latest)
        latest_.advance();

    // The base class sizes the request as mean-accesses * scale, so
    // scaling by this op's cost relative to the mix mean gives each
    // op exactly its own access budget.
    return kvOpAccesses(kv_, op_) / mixAccesses_;
}

LineAddr
KvServerApp::indexLine(Rng &rng) const
{
    // A short descent: each access lands on one of ~kIndexDepth
    // nodes on this key's root-to-leaf path.
    std::uint64_t node =
        rng.below(static_cast<std::uint64_t>(kIndexDepth));
    return fnv1a64(key_ * 0x9e3779b97f4a7c15ull + node) %
           indexLines_;
}

LineAddr
KvServerApp::drawAccess(Rng &rng)
{
    LineAddr heapBase = indexLines_;
    LineAddr streamBase = indexLines_ + heapLines_;

    if (op_ == KvOp::Scan) {
        double u = rng.uniform();
        if (u < 0.15) return base_ + indexLine(rng);
        // Row-sequential walk from the start key's value block.
        LineAddr line = (key_ % effectiveKeys_) * kv_.valueLines +
                        scanPos_++;
        return base_ + heapBase + line % heapLines_;
    }

    double u = rng.uniform();
    if (u < 0.30) return base_ + indexLine(rng);
    if ((op_ == KvOp::Update || op_ == KvOp::Insert) && u > 0.88)
        // Append-only log: monotonically advancing, never reused.
        return base_ + streamBase + logCursor_++;
    LineAddr line = (key_ % effectiveKeys_) * kv_.valueLines +
                    rng.below(kv_.valueLines);
    return base_ + heapBase + line % heapLines_;
}

void
KvServerApp::recordCompletion(Tick finish, double latency)
{
    (void)finish;
    static const std::string kSteady = "steady";
    const std::string &phase =
        (trace_ != nullptr && !trace_->empty())
            ? trace_->phaseLabelAt(serviceArrivalTick())
            : kSteady;
    byPhase_[phase].add(latency);
}

} // namespace jumanji
