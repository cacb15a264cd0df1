#include <algorithm>
#include <fstream>
#include <memory>

#include "bench/perf/perf.hh"
#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"

namespace jumanji {
namespace perf {

namespace {

/** Profiler self time of the runtime's repartition scope so far. */
double
repartitionSoFar()
{
    for (const prof::ScopeTotals &t : prof::Profiler::current().totals())
        if (t.name == "sim.epoch.repartition")
            return static_cast<double>(t.exclusiveNs) * 1e-9;
    return 0.0;
}

/** Records spans in memory; open/close must nest. */
class SpanLog
{
  public:
    void
    open(const char *name, std::uint32_t run)
    {
        Span span;
        span.name = name;
        span.parent = open_.empty()
                          ? -1
                          : static_cast<std::int64_t>(open_.back());
        span.run = run;
        span.repartitionSec = repartitionSoFar();
        span.start = nowSec();
        spans_.push_back(std::move(span));
        open_.push_back(spans_.size() - 1);
    }

    void
    close()
    {
        Span &span = spans_[open_.back()];
        span.end = nowSec();
        span.repartitionSec = repartitionSoFar() - span.repartitionSec;
        open_.pop_back();
    }

    std::vector<Span> take() { return std::move(spans_); }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** One design run of a job, by hand; returns its collected result. */
RunResult
tracedRun(SystemConfig cfg, const driver::SweepJob &job, SpanLog &log,
          std::uint32_t run)
{
    cfg.load = job.load;
    cfg.tracer = nullptr;
    log.open("run", run);

    log.open("system.build", run);
    auto system = std::make_unique<System>(cfg, job.mix, job.calibrations);
    log.close();

    // System::run() holds one of these for the whole run.
    CheckContextScope scope;
    log.open("sim.warmup", run);
    system->runUntil(cfg.warmupTicks);
    log.close();

    log.open("sim.start_measurement", run);
    system->startMeasurement();
    log.close();

    log.open("sim.measure", run);
    const Tick end = cfg.warmupTicks + cfg.measureTicks;
    for (Tick t = cfg.warmupTicks; t < end;) {
        t = std::min(end, t + cfg.epochTicks);
        log.open("sim.epoch_slice", run);
        system->runUntil(t);
        log.close();
    }
    log.close();

    log.open("system.collect", run);
    RunResult result = system->collect();
    log.close();

    log.close(); // run
    return result;
}

} // namespace

TracedPass
runTracedPass(const driver::SpecPlan &plan)
{
    prof::setProfilingEnabled(true);
    SpanLog log;
    TracedPass pass;
    std::uint32_t run = 0;
    log.open("pass", 0);
    for (driver::JobId id = 0; id < plan.graph.size(); id++) {
        const driver::SweepJob &job = plan.graph.job(id);
        log.open("job", 0);
        // runCalibrated's order: Static (the baseline) first, then
        // every other design.
        std::vector<LlcDesign> order = {LlcDesign::Static};
        for (LlcDesign d : job.designs)
            if (d != LlcDesign::Static) order.push_back(d);
        std::vector<std::uint64_t> digests;
        for (LlcDesign design : order) {
            SystemConfig cfg = job.config;
            cfg.design = design;
            digests.push_back(runDigest(tracedRun(cfg, job, log, ++run)));
        }
        pass.digests.push_back(std::move(digests));
        log.close(); // job
    }
    log.close(); // pass
    prof::setProfilingEnabled(false);
    pass.spans = log.take();
    return pass;
}

void
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream os(path);
    if (!os) fatal("cannot write " + path);
    const double origin = spans.empty() ? 0.0 : spans.front().start;
    JsonValue events = JsonValue::makeArray();
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        JsonValue args = JsonValue::makeObject();
        args.set("id", JsonValue::makeU64(i));
        args.set("parent", JsonValue::makeI64(s.parent));
        args.set("run", JsonValue::makeU64(s.run));
        args.set("repartition_s", JsonValue::makeNumber(s.repartitionSec));
        JsonValue e = JsonValue::makeObject();
        e.set("name", JsonValue::makeString(s.name));
        e.set("ph", JsonValue::makeString("X"));
        e.set("pid", JsonValue::makeU64(1));
        e.set("tid", JsonValue::makeU64(1));
        e.set("ts", JsonValue::makeNumber((s.start - origin) * 1e6));
        e.set("dur", JsonValue::makeNumber((s.end - s.start) * 1e6));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    JsonValue root = JsonValue::makeObject();
    root.set("traceEvents", std::move(events));
    os << root.dump(-1) << "\n";
}

} // namespace perf
} // namespace jumanji
