/**
 * @file
 * TailBench-like latency-critical server applications.
 *
 * Each app integrates an open-loop client and a server in one model,
 * as TailBench does: the client issues requests with exponentially
 * distributed interarrival times; the server processes them FIFO,
 * one at a time. A request is a fixed budget of instructions and LLC
 * accesses drawn from the app's working sets; its end-to-end latency
 * (queueing + service) is recorded on completion and reported to a
 * registered listener (Jumanji's RequestCompleted path, Listing 1).
 *
 * The five applications (masstree, xapian, img-dnn, silo, moses)
 * differ in request size, footprint, and intensity.
 */

#ifndef JUMANJI_WORKLOADS_TAIL_LATENCY_HH
#define JUMANJI_WORKLOADS_TAIL_LATENCY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/cpu/app_model.hh"
#include "src/sim/stats.hh"
#include "src/workloads/address_stream.hh"

namespace jumanji {

/** Static description of one latency-critical application. */
struct TailAppParams
{
    std::string name;
    /** Instructions of service per request. */
    std::uint64_t instrsPerRequest = 100000;
    /** LLC accesses per 1000 instructions while serving. */
    double apki = 12.0;
    /** Fraction of requests that are "heavy" (tail-setting). */
    double heavyFrac = 0.10;
    /** Work multiplier for heavy requests. */
    double heavyScale = 2.0;
    std::vector<WorkingSet> workingSets;
    AppTraits traits;
};

/** Catalog of the paper's five TailBench applications. */
const std::vector<TailAppParams> &tailAppCatalog();

/** Looks up catalog params by name. Fatal if unknown. */
const TailAppParams &tailAppParams(const std::string &name);

/**
 * A latency-critical server + open-loop client.
 */
class TailLatencyApp : public AppModel
{
  public:
    /** Called with (completionTick, latencyCycles) per request. */
    using CompletionListener = std::function<void(Tick, double)>;

    TailLatencyApp(const TailAppParams &params, AppId app,
                   double meanInterarrivalCycles, Rng arrivalRng);

    const std::string &name() const override { return params_.name; }
    AppStep next(Tick now, Rng &rng) override;
    void onAccessComplete(Tick finish) override;
    const AppTraits &traits() const override { return params_.traits; }
    bool isLatencyCritical() const override { return true; }

    /** Registers the runtime's request-completion callback. */
    void setCompletionListener(CompletionListener cb)
    {
        listener_ = std::move(cb);
    }

    /**
     * Changes the offered load (mean interarrival, cycles). The
     * pending next arrival is resampled from @p now so the change
     * takes effect immediately.
     */
    void setMeanInterarrival(double cycles, Tick now = 0);

    /** All request latencies recorded so far (cycles). */
    const SampleStat &latencies() const { return latencies_; }

    /**
     * Discards request statistics gathered so far (called when the
     * measurement window opens). Subclasses that keep extra
     * per-request records reset them here too.
     */
    virtual void clearMeasurement() { latencies_.clear(); }

    std::uint64_t requestsCompleted() const { return completed_; }
    std::uint64_t requestsArrived() const { return arrived_; }

    /** Current queue depth (including the in-service request). */
    std::size_t queueDepth() const
    {
        return pendingArrivals_.size() + (inService_ ? 1 : 0);
    }

    const TailAppParams &params() const { return params_; }

  protected:
    /**
     * Work multiplier for the request about to start. The default
     * draws the heavy/light bernoulli; subclasses draw richer
     * per-request state (e.g. a KV op type and key). Must consume
     * only heavyRng() so the request sequence stays identical
     * across LLC designs.
     */
    virtual double drawWorkScale();

    /** Address of the next LLC access of the in-service request. */
    virtual LineAddr drawAccess(Rng &rng);

    /**
     * Called once per completed request, after the latency has been
     * recorded but before the completion listener fires.
     */
    virtual void recordCompletion(Tick finish, double latency);

    /** Per-request draw stream, decoupled from arrivals. */
    Rng &heavyRng() { return heavyRng_; }

    /** Arrival tick of the request currently in service. */
    Tick serviceArrivalTick() const { return serviceArrivalTick_; }

  private:
    void drainArrivals(Tick now);
    void startNextRequest();

    TailAppParams params_;
    AddressStream stream_;
    Rng arrivalRng_;
    /**
     * Separate stream for per-request heavy/light draws: request k
     * always gets the k-th draw regardless of how arrival draws
     * interleave with request starts, so the request-size sequence
     * is identical across LLC designs (paired comparisons).
     */
    Rng heavyRng_;
    double meanInterarrival_;

    Tick nextArrival_ = 0;
    std::deque<Tick> pendingArrivals_;

    bool inService_ = false;
    Tick serviceArrivalTick_ = 0;
    std::uint64_t accessesLeft_ = 0;
    double instrsPerAccess_ = 0.0;
    bool completionPending_ = false;

    SampleStat latencies_;
    std::uint64_t completed_ = 0;
    std::uint64_t arrived_ = 0;
    CompletionListener listener_;
};

} // namespace jumanji

#endif // JUMANJI_WORKLOADS_TAIL_LATENCY_HH
