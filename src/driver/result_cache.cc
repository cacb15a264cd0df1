#include "src/driver/result_cache.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/driver/env.hh"
#include "src/sim/fingerprint.hh"
#include "src/system/config.hh"
#include "src/workloads/mixes.hh"

namespace jumanji {
namespace driver {

namespace {

constexpr char kMagic[4] = {'J', 'M', 'J', 'R'};
constexpr std::uint32_t kResultSchema = 2;
constexpr std::uint32_t kCalibSchema = 1;

/** Appends fixed-width little-endian fields to a string. */
class BlobWriter
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }

    void raw(const char *data, std::size_t n) { out_.append(data, n); }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Bounds-checked reader; any overrun poisons the whole read. */
class BlobReader
{
  public:
    explicit BlobReader(const std::string &blob) : blob_(blob) {}

    bool ok() const { return ok_; }

    std::uint64_t
    u64()
    {
        if (!need(8)) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(blob_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        if (!need(n)) return {};
        std::string s = blob_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    bool
    expectRaw(const char *data, std::size_t n)
    {
        if (!need(n) || std::memcmp(blob_.data() + pos_, data, n) != 0) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    bool atEnd() const { return ok_ && pos_ == blob_.size(); }

    /** Marks the blob malformed: every later read fails. */
    void fail() { ok_ = false; }

    /**
     * Sanity bound for count fields: a corrupt length must not drive
     * a multi-gigabyte resize before the per-element reads fail.
     */
    std::uint64_t
    count()
    {
        std::uint64_t n = u64();
        if (n > blob_.size()) ok_ = false;
        return ok_ ? n : 0;
    }

  private:
    bool
    need(std::uint64_t n)
    {
        if (!ok_ || blob_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::string &blob_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

void
writeRun(BlobWriter &w, const RunResult &run)
{
    w.u64(run.apps.size());
    for (const AppResult &app : run.apps) {
        w.str(app.name);
        w.i64(app.app);
        w.i64(app.vm);
        w.u64(app.latencyCritical ? 1 : 0);
        w.u64(app.progress.instrs);
        w.u64(app.progress.cycles);
        w.u64(app.counters.l1Hits);
        w.u64(app.counters.l1Misses);
        w.u64(app.counters.l2Hits);
        w.u64(app.counters.l2Misses);
        w.u64(app.counters.llcHits);
        w.u64(app.counters.llcMisses);
        w.u64(app.counters.nocHops);
        w.u64(app.counters.memAccesses);
        w.f64(app.avgAccessLatency);
        w.f64(app.tailLatency);
        w.f64(app.deadline);
        w.u64(app.requestsCompleted);
    }
    w.u64(run.measuredTicks);
    w.u64(run.statDump.size());
    for (const StatValue &sv : run.statDump) {
        w.str(sv.name);
        w.f64(sv.value);
    }
    const TimelineSeries &timeline = run.timeline;
    w.u64(timeline.columns().size());
    for (const std::string &c : timeline.columns()) w.str(c);
    w.u64(timeline.ticks().size());
    for (Tick t : timeline.ticks()) w.u64(t);
    // Rows stay dense in the blob: a count, then each row's width and
    // values.
    w.u64(timeline.rowCount());
    for (auto row = timeline.cursor(); row.next();) {
        w.u64(row.values().size());
        for (double v : row.values()) w.f64(v);
    }
}

RunResult
readRun(BlobReader &r)
{
    RunResult run;
    std::uint64_t nApps = r.count();
    run.apps.resize(nApps);
    for (AppResult &app : run.apps) {
        app.name = r.str();
        app.app = static_cast<AppId>(r.i64());
        app.vm = static_cast<VmId>(r.i64());
        app.latencyCritical = r.u64() != 0;
        app.progress.instrs = r.u64();
        app.progress.cycles = r.u64();
        app.counters.l1Hits = r.u64();
        app.counters.l1Misses = r.u64();
        app.counters.l2Hits = r.u64();
        app.counters.l2Misses = r.u64();
        app.counters.llcHits = r.u64();
        app.counters.llcMisses = r.u64();
        app.counters.nocHops = r.u64();
        app.counters.memAccesses = r.u64();
        app.avgAccessLatency = r.f64();
        app.tailLatency = r.f64();
        app.deadline = r.f64();
        app.requestsCompleted = r.u64();
    }
    run.measuredTicks = r.u64();
    run.statDump.resize(r.count());
    for (StatValue &sv : run.statDump) {
        sv.name = r.str();
        sv.value = r.f64();
    }
    std::vector<std::string> columns(r.count());
    for (std::string &c : columns) c = r.str();
    std::vector<Tick> ticks(r.count());
    for (Tick &t : ticks) t = r.u64();
    // A series holds one full-width row per tick; a blob of any other
    // shape is malformed.
    if (r.count() != ticks.size()) r.fail();
    run.timeline = TimelineSeries(std::move(columns));
    for (Tick t : ticks) {
        if (r.u64() != run.timeline.columns().size()) r.fail();
        if (!r.ok()) break;
        run.timeline.appendRow(t, [&r](std::size_t) { return r.f64(); });
    }
    return run;
}

std::string
hexKey(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; i--) {
        s[i] = digits[v & 0xf];
        v >>= 4;
    }
    return s;
}

void
foldCalibrations(Fingerprint &fp, const LcCalibrationMap &calibrations)
{
    fp.addU64(calibrations.size());
    for (const auto &[name, calib] : calibrations) {
        fp.addString(name);
        fp.addDouble(calib.serviceCycles);
        fp.addDouble(calib.deadline);
    }
}

} // namespace

std::string
jobKey(const SweepJob &job)
{
    Fingerprint fp;
    fp.addString(kCodeVersion);
    fp.addString("job");
    foldConfig(fp, job.config);
    foldMix(fp, job.mix);
    fp.addU64(job.designs.size());
    for (LlcDesign d : job.designs)
        fp.addI64(static_cast<std::int64_t>(d));
    fp.addI64(static_cast<std::int64_t>(job.load));
    fp.addU64(job.selfCalibrate ? 1 : 0);
    // A self-calibrated job's calibrations were made under its own
    // config (fed to the key above), so they add nothing; any other
    // job's calibrations are an input, and their values key it.
    if (!job.selfCalibrate) foldCalibrations(fp, job.calibrations);
    return hexKey(fp.value());
}

std::string
calibrationKey(const SystemConfig &config, const std::string &lcName)
{
    Fingerprint fp;
    fp.addString(kCodeVersion);
    fp.addString("calib");
    foldConfig(fp, config);
    fp.addString(lcName);
    return hexKey(fp.value());
}

std::string
serializeMixResult(const MixResult &result)
{
    BlobWriter w;
    w.raw(kMagic, sizeof(kMagic));
    w.u64(kResultSchema);
    w.u64(result.mix.vms.size());
    for (const VmSpec &vm : result.mix.vms) {
        w.u64(vm.lcApps.size());
        for (const std::string &n : vm.lcApps) w.str(n);
        w.u64(vm.batchApps.size());
        for (const std::string &n : vm.batchApps) w.str(n);
    }
    w.u64(result.designs.size());
    for (const DesignResult &d : result.designs) {
        w.i64(static_cast<std::int64_t>(d.design));
        w.f64(d.batchSpeedup);
        writeRun(w, d.run);
    }
    return w.take();
}

std::optional<MixResult>
deserializeMixResult(const std::string &blob)
{
    BlobReader r(blob);
    if (!r.expectRaw(kMagic, sizeof(kMagic))) return std::nullopt;
    if (r.u64() != kResultSchema) return std::nullopt;

    MixResult result;
    result.mix.vms.resize(r.count());
    for (VmSpec &vm : result.mix.vms) {
        vm.lcApps.resize(r.count());
        for (std::string &n : vm.lcApps) n = r.str();
        vm.batchApps.resize(r.count());
        for (std::string &n : vm.batchApps) n = r.str();
    }
    result.designs.resize(r.count());
    for (DesignResult &d : result.designs) {
        d.design = static_cast<LlcDesign>(r.i64());
        d.batchSpeedup = r.f64();
        d.run = readRun(r);
    }
    if (!r.atEnd()) return std::nullopt;
    return result;
}

std::string
serializeCalibration(const LcCalibration &calibration)
{
    BlobWriter w;
    w.raw(kMagic, sizeof(kMagic));
    w.u64(kCalibSchema);
    w.f64(calibration.serviceCycles);
    w.f64(calibration.deadline);
    return w.take();
}

std::optional<LcCalibration>
deserializeCalibration(const std::string &blob)
{
    BlobReader r(blob);
    if (!r.expectRaw(kMagic, sizeof(kMagic))) return std::nullopt;
    if (r.u64() != kCalibSchema) return std::nullopt;
    LcCalibration calib;
    calib.serviceCycles = r.f64();
    calib.deadline = r.f64();
    if (!r.atEnd()) return std::nullopt;
    return calib;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::pathFor(const std::string &key, const char *suffix) const
{
    return dir_ + "/" + key + suffix;
}

std::optional<std::string>
ResultCache::loadBlob(const std::string &path) const
{
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) return std::nullopt;
    return buf.str();
}

void
ResultCache::storeBlob(const std::string &path, const std::string &blob)
{
    // One writer at a time within this process; the final rename is
    // atomic, so a concurrent reader (or another process) sees either
    // the previous file or the complete new one.
    std::lock_guard<std::mutex> lock(storeMutex_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warnOnce("cache-dir:" + dir_,
                 "cannot create result cache directory \"" + dir_ +
                     "\"; results are not cached");
        return;
    }
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
        if (!out.good()) {
            warnOnce("cache-write:" + dir_,
                     "cannot write to result cache directory \"" +
                         dir_ + "\"; results are not cached");
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) std::filesystem::remove(tmp, ec);
}

std::optional<MixResult>
ResultCache::loadResult(const std::string &key) const
{
    if (!enabled()) return std::nullopt;
    auto blob = loadBlob(pathFor(key, ".mixresult"));
    if (!blob) return std::nullopt;
    return deserializeMixResult(*blob);
}

void
ResultCache::storeResult(const std::string &key, const MixResult &result)
{
    if (!enabled()) return;
    storeBlob(pathFor(key, ".mixresult"), serializeMixResult(result));
}

std::optional<LcCalibration>
ResultCache::loadCalibration(const std::string &key) const
{
    if (!enabled()) return std::nullopt;
    auto blob = loadBlob(pathFor(key, ".calib"));
    if (!blob) return std::nullopt;
    return deserializeCalibration(*blob);
}

void
ResultCache::storeCalibration(const std::string &key,
                              const LcCalibration &calibration)
{
    if (!enabled()) return;
    storeBlob(pathFor(key, ".calib"), serializeCalibration(calibration));
}

} // namespace driver
} // namespace jumanji
