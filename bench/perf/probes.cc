#include <memory>

#include "bench/perf/perf.hh"
#include "src/sim/check.hh"
#include "src/sim/logging.hh"

namespace jumanji {
namespace perf {

namespace {

constexpr std::size_t kCalls = 1 << 16;
constexpr std::size_t kSamples = 4096;

/** Keeps every timed result observable, so no loop is optimized away. */
volatile std::uint64_t gSink = 0;

/** Median over five repetitions of host ns per call of @p body(i). */
template <typename Body>
double
nsPerCall(std::size_t calls, Body &&body)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; r++) {
        std::uint64_t sink = 0;
        const double start = nowSec();
        for (std::size_t i = 0; i < calls; i++)
            sink += static_cast<std::uint64_t>(body(i));
        reps.push_back((nowSec() - start) * 1e9 /
                       static_cast<double>(calls));
        gSink = gSink + sink;
    }
    return median(reps);
}

/** One LLC access as a core of the probed System would issue it. */
struct Sample
{
    std::uint32_t tile = 0;
    AccessOwner owner;
    LineAddr line = 0;
    BankId bank = kInvalidBank;
    Umon *umon = nullptr;
};

class NoopAgent : public Agent
{
  public:
    explicit NoopAgent(Tick period) : period_(period) {}

    Tick
    resume(Tick now) override
    {
        calls_++;
        return now + period_;
    }

    std::uint64_t calls() const { return calls_; }

  private:
    Tick period_;
    std::uint64_t calls_ = 0;
};

/** Host ns per event of an EventQueue holding @p agents no-op agents. */
double
eventQueueNs(std::size_t agents)
{
    std::vector<double> reps;
    for (int r = 0; r < 3; r++) {
        EventQueue queue;
        std::vector<std::unique_ptr<NoopAgent>> pool;
        double eventsPerTick = 0.0;
        for (std::size_t i = 0; i < agents; i++) {
            // Distinct periods keep the heap order changing.
            const Tick period = 3 + 2 * i;
            pool.push_back(std::make_unique<NoopAgent>(period));
            queue.schedule(pool.back().get(), i);
            eventsPerTick += 1.0 / static_cast<double>(period);
        }
        const auto horizon = static_cast<Tick>(
            static_cast<double>(1 << 21) / eventsPerTick);
        const double start = nowSec();
        queue.runUntil(horizon);
        const double elapsed = nowSec() - start;
        std::uint64_t events = 0;
        for (const auto &agent : pool) events += agent->calls();
        reps.push_back(elapsed * 1e9 / static_cast<double>(events));
    }
    return median(reps);
}

} // namespace

Probes
runProbes(const driver::SweepJob &job, std::uint64_t seed)
{
    Probes p;
    SystemConfig cfg = job.config;
    cfg.load = job.load;
    cfg.tracer = nullptr;
    cfg.design = job.designs.back();
    {
        CheckContextScope scope;
        System sys(cfg, job.mix, job.calibrations);
        sys.runUntil(cfg.warmupTicks);
        const Tick now = sys.queue().now();
        const auto &cores = sys.cores();

        // CoreModel::resume first, while every core and app is still
        // in the state the event queue left it in. Each core then runs
        // on its own clock, starting past any access it has in flight
        // (a compute burst is far shorter than an epoch).
        std::vector<Tick> wake(cores.size(), now + cfg.epochTicks);
        p.resumeNs = nsPerCall(kCalls, [&](std::size_t i) {
            const std::size_t c = i % cores.size();
            wake[c] = cores[c]->resume(wake[c]);
            return wake[c];
        });

        MemPath &path = sys.memPath();
        Rng rng(seed ^ 0x70b35ull);
        std::vector<Sample> samples;
        for (std::size_t k = 0;
             samples.size() < kSamples && k < 16 * kSamples; k++) {
            CoreModel &core = *cores[k % cores.size()];
            AppStep step = core.app().next(now, rng);
            if (!step.access) continue;
            Sample s;
            s.tile = static_cast<std::uint32_t>(core.id());
            s.owner = core.owner();
            s.line = *step.access;
            s.bank = path.vtb().lookup(s.owner.vc, s.line);
            s.umon = &path.umon(s.owner.vc);
            samples.push_back(s);
        }
        if (samples.empty()) fatal("probes: the apps issued no accesses");
        auto at = [&](std::size_t i) -> const Sample & {
            return samples[i % samples.size()];
        };

        // Pure lookups.
        p.vtbNs = nsPerCall(kCalls, [&](std::size_t i) {
            return path.vtb().lookup(at(i).owner.vc, at(i).line);
        });
        p.hopsNs = nsPerCall(kCalls, [&](std::size_t i) {
            return path.mesh().hops(at(i).tile,
                                    static_cast<std::uint32_t>(at(i).bank));
        });
        p.planNs = nsPerCall(kCalls, [&](std::size_t i) {
            return path.planAccess(at(i).tile, at(i).owner.vc, at(i).line)
                .traversal;
        });

        // App step generation, batch and latency-critical apart.
        std::vector<std::size_t> batch, lc;
        for (std::size_t c = 0; c < cores.size(); c++)
            (cores[c]->owner().latencyCritical ? lc : batch).push_back(c);
        Tick t = now;
        auto nextNs = [&](const std::vector<std::size_t> &which) {
            if (which.empty()) return 0.0;
            return nsPerCall(kCalls, [&](std::size_t i) {
                t += 16;
                return cores[which[i % which.size()]]
                    ->app()
                    .next(t, rng)
                    .instrs;
            });
        };
        p.nextBatchNs = nextNs(batch);
        p.nextLcNs = nextNs(lc);

        // Stateful per-access components, at advancing arrival ticks.
        p.umonNs = nsPerCall(kCalls, [&](std::size_t i) {
            at(i).umon->access(at(i).line);
            return 1;
        });
        p.bankNs = nsPerCall(kCalls, [&](std::size_t i) {
            t += 4;
            return path.bank(at(i).bank)
                .access(t, at(i).line, at(i).owner)
                .latency;
        });
        p.memNs = nsPerCall(kCalls, [&](std::size_t i) {
            t += 4;
            return path.memory()
                .access(t, at(i).line, at(i).owner.vm,
                        at(i).owner.latencyCritical)
                .latency;
        });
        p.accessNs = nsPerCall(kCalls, [&](std::size_t i) {
            t += 4;
            return path.accessArrived(t, at(i).tile, at(i).owner, at(i).line)
                .latency;
        });

        // Per-epoch work.
        p.snapshotUs = nsPerCall(64, [&](std::size_t) {
                           return sys.stats().snapshot().size();
                       }) *
                       1e-3;
        p.missCurveUs = nsPerCall(64, [&](std::size_t i) {
                            return at(i).umon->missCurve().buckets();
                        }) *
                        1e-3;

        // As many agents as the System schedules: cores, the runtime,
        // the epoch sampler, and the KV load agent when there is one.
        p.eventNs = eventQueueNs(cores.size() + 2 +
                                 (sys.kvApps().empty() ? 0 : 1));
    }

    // One reconfiguration of each design from a warmed System. The
    // repeated calls reinstall an unchanged placement, so this is the
    // placer and controller cost without the coherence walk.
    for (LlcDesign design :
         {LlcDesign::Static, LlcDesign::Adaptive, LlcDesign::VMPart,
          LlcDesign::Jigsaw, LlcDesign::Jumanji}) {
        SystemConfig c = cfg;
        c.design = design;
        CheckContextScope scope;
        System sys(c, job.mix, job.calibrations);
        sys.runUntil(c.warmupTicks);
        double us = nsPerCall(4, [&](std::size_t) {
                        sys.runtime().reconfigureNow(sys.queue().now());
                        return 1;
                    }) *
                    1e-3;
        p.reconfigureUs.emplace_back(llcDesignName(design), us);
    }
    return p;
}

} // namespace perf
} // namespace jumanji
