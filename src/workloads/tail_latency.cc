#include "src/workloads/tail_latency.hh"

#include "src/sim/logging.hh"

namespace jumanji {

namespace {

constexpr std::uint64_t kMB = (1024 * 1024) / kLineBytes;

AppTraits
tailTraits(double ipc, double stall)
{
    AppTraits t;
    t.baseIpc = ipc;
    t.stallFactor = stall;
    return t;
}

std::vector<TailAppParams>
buildCatalog()
{
    std::vector<TailAppParams> apps;
    auto add = [&](std::string name, std::uint64_t instrs, double apki,
                   std::vector<WorkingSet> ws, AppTraits traits) {
        TailAppParams p;
        p.name = std::move(name);
        p.instrsPerRequest = instrs;
        p.apki = apki;
        p.workingSets = std::move(ws);
        p.traits = traits;
        apps.push_back(std::move(p));
    };

    // Request sizes are inversely ordered like Table III QPS ranges
    // (silo/masstree serve short requests, moses/img-dnn long ones);
    // instruction budgets are time-scaled with the rest of the
    // system (DESIGN.md). Footprints make service time strongly
    // cache-sensitive: a hot index or model that fits with a healthy
    // allocation and thrashes without — the Fig. 8 cliff.
    add("masstree", 1500, 38.0,
        {{kMB / 4, 3.0, false}, {7 * kMB / 4, 5.0, false}},
        tailTraits(1.1, 0.85));
    add("xapian", 3500, 40.0,
        {{kMB / 4, 3.0, false}, {2 * kMB, 5.0, false},
         {5 * kMB, 1.0, false}},
        tailTraits(1.2, 0.85));
    add("img-dnn", 15000, 28.0,
        {{kMB / 2, 3.0, false}, {3 * kMB / 2, 4.0, false}},
        tailTraits(1.4, 0.8));
    add("silo", 1200, 34.0,
        {{kMB / 4, 4.0, false}, {kMB, 4.0, false}},
        tailTraits(1.3, 0.8));
    add("moses", 13000, 32.0,
        {{kMB / 2, 3.0, false}, {2 * kMB, 4.0, false},
         {6 * kMB, 1.0, false}},
        tailTraits(1.1, 0.85));
    return apps;
}

} // namespace

const std::vector<TailAppParams> &
tailAppCatalog()
{
    static const std::vector<TailAppParams> catalog = buildCatalog();
    return catalog;
}

const TailAppParams &
tailAppParams(const std::string &name)
{
    for (const auto &p : tailAppCatalog())
        if (p.name == name) return p;
    fatal("unknown latency-critical app: " + name);
}

TailLatencyApp::TailLatencyApp(const TailAppParams &params, AppId app,
                               double meanInterarrivalCycles,
                               Rng arrivalRng)
    : params_(params),
      stream_(appAddressBase(app), params.workingSets),
      arrivalRng_(arrivalRng),
      heavyRng_(arrivalRng.fork()),
      meanInterarrival_(meanInterarrivalCycles)
{
    if (params_.apki <= 0.0)
        fatal("TailLatencyApp: apki must be positive");
    if (meanInterarrival_ <= 0.0)
        fatal("TailLatencyApp: interarrival must be positive");
    instrsPerAccess_ = 1000.0 / params_.apki;
    nextArrival_ =
        floorExponential(arrivalRng_.uniform(), meanInterarrival_);
}

void
TailLatencyApp::setMeanInterarrival(double cycles, Tick now)
{
    if (cycles <= 0.0)
        fatal("TailLatencyApp: interarrival must be positive");
    meanInterarrival_ = cycles;
    // Resample the pending arrival under the new rate.
    nextArrival_ = now +
                   floorExponential(arrivalRng_.uniform(),
                                    meanInterarrival_) +
                   1;
}

void
TailLatencyApp::drainArrivals(Tick now)
{
    while (nextArrival_ <= now) {
        pendingArrivals_.push_back(nextArrival_);
        arrived_++;
        nextArrival_ +=
            floorExponential(arrivalRng_.uniform(), meanInterarrival_) +
            1;
    }
}

double
TailLatencyApp::drawWorkScale()
{
    // Heavy requests (drawn from the arrival stream so the request
    // sequence is identical across LLC designs) set the tail, as in
    // real interactive services with skewed request costs.
    return heavyRng_.bernoulli(params_.heavyFrac)
               ? params_.heavyScale
               : 1.0;
}

LineAddr
TailLatencyApp::drawAccess(Rng &rng)
{
    return stream_.draw(rng);
}

void
TailLatencyApp::recordCompletion(Tick finish, double latency)
{
    (void)finish;
    (void)latency;
}

void
TailLatencyApp::startNextRequest()
{
    serviceArrivalTick_ = pendingArrivals_.front();
    pendingArrivals_.pop_front();
    inService_ = true;
    double scale = drawWorkScale();
    // Every request issues its accesses evenly through its
    // instruction budget and *ends* on an access, so completion time
    // is observed precisely via onAccessComplete.
    accessesLeft_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(params_.instrsPerRequest) *
               params_.apki / 1000.0 * scale));
}

AppStep
TailLatencyApp::next(Tick now, Rng &rng)
{
    drainArrivals(now);

    if (!inService_) {
        if (pendingArrivals_.empty())
            return AppStep::idleUntil(nextArrival_);
        startNextRequest();
    }

    auto gap = floorExponential(rng.uniform(), instrsPerAccess_) + 1;
    accessesLeft_--;
    if (accessesLeft_ == 0) {
        // Final access of this request: completion recorded when the
        // access's data returns.
        completionPending_ = true;
        inService_ = false;
    }
    return AppStep::execute(gap, drawAccess(rng));
}

void
TailLatencyApp::onAccessComplete(Tick finish)
{
    if (!completionPending_) return;
    completionPending_ = false;

    double latency = static_cast<double>(finish - serviceArrivalTick_);
    latencies_.add(latency);
    completed_++;
    recordCompletion(finish, latency);
    if (listener_) listener_(finish, latency);
}

} // namespace jumanji
