#include "src/sim/statreg.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"

namespace jumanji {

namespace {

/**
 * Numbers in dumps: counters and integral values print without a
 * fractional part so JSON consumers see integers; everything else
 * prints with full round-trip precision.
 */
std::string
formatNumber(double v)
{
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) &&
        std::fabs(v) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else if (std::isfinite(v)) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
        // JSON has no Inf/NaN literals; clamp to null.
        return "null";
    }
    return buf;
}

bool
validStatName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok) return false;
    }
    return name.find("..") == std::string::npos;
}

} // namespace

std::string
statIndexName(std::uint64_t index, int width)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%0*llu", width,
                  static_cast<unsigned long long>(index));
    return buf;
}

// ------------------------------------------------------- StatRegistry

const StatRegistry::Node &
StatRegistry::insert(const std::string &name, Node node)
{
    if (!validStatName(name))
        panic("StatRegistry: invalid stat name '" + name +
              "' (lowercase dotted paths only)");
    // A name that is also a parent path of another stat ("llc" next
    // to "llc.hits") would emit duplicate keys in the nested dump.
    std::string asParent = name + ".";
    auto next = nodes_.lower_bound(name);
    if (next != nodes_.end() &&
        next->first.compare(0, asParent.size(), asParent) == 0)
        panic("StatRegistry: '" + name + "' is a parent path of '" +
              next->first + "'");
    if (next != nodes_.begin()) {
        const std::string &prev = std::prev(next)->first;
        if (name.compare(0, prev.size() + 1, prev + ".") == 0)
            panic("StatRegistry: '" + name +
                  "' nests under existing stat '" + prev + "'");
    }
    auto [it, inserted] = nodes_.emplace(name, std::move(node));
    // Cold path, so the duplicate check stays active in every build
    // type: a silently rebound stat would corrupt dumps and the
    // fingerprint stream.
    if (!inserted)
        panic("StatRegistry: duplicate stat name '" + name + "'");
    leafCacheValid_ = false;
    return it->second;
}

void
StatRegistry::addCounter(const std::string &name, const std::string &desc,
                         const std::uint64_t *value)
{
    JUMANJI_ASSERT(value != nullptr, "counter must bind a value");
    Node n;
    n.kind = Kind::Counter;
    n.desc = desc;
    n.counter = value;
    insert(name, std::move(n));
}

void
StatRegistry::addGauge(const std::string &name, const std::string &desc,
                       std::function<double()> read)
{
    JUMANJI_ASSERT(static_cast<bool>(read), "gauge must bind a reader");
    Node n;
    n.kind = Kind::Gauge;
    n.desc = desc;
    n.read = std::move(read);
    insert(name, std::move(n));
}

void
StatRegistry::addFormula(const std::string &name, const std::string &desc,
                         std::function<double()> eval)
{
    JUMANJI_ASSERT(static_cast<bool>(eval), "formula must bind an eval");
    Node n;
    n.kind = Kind::Formula;
    n.desc = desc;
    n.read = std::move(eval);
    insert(name, std::move(n));
}

void
StatRegistry::addDistribution(const std::string &name,
                              const std::string &desc,
                              const SampleStat *samples)
{
    JUMANJI_ASSERT(samples != nullptr, "distribution must bind samples");
    Node n;
    n.kind = Kind::Distribution;
    n.desc = desc;
    n.samples = samples;
    insert(name, std::move(n));
}

bool
StatRegistry::has(const std::string &name) const
{
    return nodes_.count(name) > 0;
}

int
StatRegistry::partCount(const Node &node)
{
    return node.kind == Kind::Distribution ? 7 : 1;
}

std::string
StatRegistry::partName(const std::string &name, int part)
{
    if (part < 0) return name;
    static const char *kSuffixes[7] = {".count", ".mean", ".min", ".max",
                                       ".p50",   ".p95",  ".p99"};
    return name + kSuffixes[part];
}

double
StatRegistry::leafValue(const Node &node, int part)
{
    switch (node.kind) {
    case Kind::Counter: return static_cast<double>(*node.counter);
    case Kind::Gauge:
    case Kind::Formula: return node.read();
    case Kind::Distribution: break;
    }
    const SampleStat &s = *node.samples;
    switch (part) {
    case 0: return static_cast<double>(s.count());
    case 1: return s.mean();
    case 2: return s.min();
    case 3: return s.max();
    case 4: return s.percentile(50.0);
    case 5: return s.percentile(95.0);
    case 6: return s.percentile(99.0);
    default: panic("StatRegistry: bad sample-stat leaf part");
    }
}

void
StatRegistry::appendLeaves(const std::string &name, const Node &node,
                           std::vector<StatValue> &out) const
{
    int parts = partCount(node);
    if (node.kind != Kind::Distribution) {
        out.push_back({name, leafValue(node, -1)});
        return;
    }
    for (int part = 0; part < parts; part++)
        out.push_back({partName(name, part), leafValue(node, part)});
}

void
StatRegistry::ensureLeafCache() const
{
    if (leafCacheValid_) return;
    leafCache_.clear();
    leafCache_.reserve(nodes_.size());
    for (const auto &[name, node] : nodes_) {
        if (node.kind != Kind::Distribution) {
            leafCache_.push_back({name, &name, &node, -1});
            continue;
        }
        int parts = partCount(node);
        for (int part = 0; part < parts; part++)
            leafCache_.push_back({partName(name, part), &name, &node, part});
    }
    // One sort at build time gives every later snapshot, dump, and
    // fingerprint its total order by full leaf name. The node map is
    // already name-ordered, but distribution expansions append their
    // suffixes in summary order (.count, .mean, ...), and sibling
    // names can interleave ('-' sorts before '.').
    std::sort(leafCache_.begin(), leafCache_.end(),
              [](const LeafRef &a, const LeafRef &b) {
                  return a.name < b.name;
              });
    leafCacheValid_ = true;
}

namespace {

bool
matchesAnySelector(const std::string &nodeName,
                   const std::vector<std::string> &selectors)
{
    for (const auto &sel : selectors)
        if (nodeName.compare(0, sel.size(), sel) == 0) return true;
    return false;
}

} // namespace

std::vector<StatValue>
StatRegistry::snapshot() const
{
    ensureLeafCache();
    std::vector<StatValue> out;
    out.reserve(leafCache_.size());
    for (const LeafRef &leaf : leafCache_)
        out.push_back({leaf.name, leafValue(*leaf.node, leaf.part)});
    return out;
}

std::vector<StatValue>
StatRegistry::snapshot(const std::vector<std::string> &selectors) const
{
    ensureLeafCache();
    std::vector<StatValue> out;
    for (const LeafRef &leaf : leafCache_) {
        if (!matchesAnySelector(*leaf.nodeName, selectors)) continue;
        out.push_back({leaf.name, leafValue(*leaf.node, leaf.part)});
    }
    return out;
}

std::vector<std::string>
StatRegistry::leaves(const std::vector<std::string> &selectors) const
{
    ensureLeafCache();
    std::vector<std::string> names;
    for (const LeafRef &leaf : leafCache_)
        if (matchesAnySelector(*leaf.nodeName, selectors))
            names.push_back(leaf.name);
    return names;
}

std::vector<StatRegistry::Leaf>
StatRegistry::resolve(const std::vector<std::string> &selectors) const
{
    ensureLeafCache();
    std::vector<Leaf> out;
    for (const LeafRef &leaf : leafCache_)
        if (matchesAnySelector(*leaf.nodeName, selectors))
            out.push_back(Leaf(leaf.node, leaf.part));
    return out;
}

double
StatRegistry::value(const std::string &name) const
{
    auto it = nodes_.find(name);
    if (it != nodes_.end() && it->second.kind != Kind::Distribution) {
        const Node &n = it->second;
        return n.kind == Kind::Counter
                   ? static_cast<double>(*n.counter)
                   : n.read();
    }
    // Distribution leaves ("x.p95"): strip the last component and
    // expand the parent node.
    std::size_t dot = name.rfind('.');
    if (dot != std::string::npos) {
        auto parent = nodes_.find(name.substr(0, dot));
        if (parent != nodes_.end() &&
            parent->second.kind == Kind::Distribution) {
            std::vector<StatValue> expanded;
            appendLeaves(parent->first, parent->second, expanded);
            for (const StatValue &sv : expanded)
                if (sv.name == name) return sv.value;
        }
    }
    panic("StatRegistry::value: unknown stat '" + name + "'");
}

// --------------------------------------------------- TimelineSeries
//
// Row coding. Values are appended row-major, one token each:
//  - A value equal to an integer i with |i| <= 2^53, other than -0.0,
//    is the LEB128 varint of zigzag(i - last) + 1, where last is the
//    column's previous integer (0 before its first). A counter or line
//    count that moves by less than 64 in an epoch takes one byte.
//  - Any other double (fractions, -0.0, infinities, NaNs, integers
//    past 2^53) is a 0 byte, then its 8 bytes little-endian.
// Every integer up to 2^53 in magnitude converts to int64 and back
// exactly, and put() takes the integer path only when that round trip
// gives back the input's bits, so decoding restores each value bit for
// bit. Deltas of such integers stay within +-2^54, so no step
// overflows.

namespace {

constexpr double kExactIntegerLimit = 9007199254740992.0; // 2^53
constexpr std::uint64_t kRawToken = 0;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<std::uint8_t>(v | 0x80));
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        const std::uint8_t b = in[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (b < 0x80) return v;
    }
}

} // namespace

TimelineSeries::TimelineSeries(std::vector<std::string> columns)
    : columns_(std::move(columns)), last_(columns_.size(), 0)
{
}

std::size_t
TimelineSeries::columnIndex(const std::string &column) const
{
    for (std::size_t i = 0; i < columns_.size(); i++)
        if (columns_[i] == column) return i;
    return static_cast<std::size_t>(-1);
}

void
TimelineSeries::put(std::size_t column, double v)
{
    // The comparison is false for NaN, so the cast sees only values
    // it can represent.
    if (std::fabs(v) <= kExactIntegerLimit) {
        const auto i = static_cast<std::int64_t>(v);
        if (std::bit_cast<std::uint64_t>(static_cast<double>(i)) ==
            std::bit_cast<std::uint64_t>(v)) {
            const std::int64_t delta = i - last_[column];
            last_[column] = i;
            const std::uint64_t zigzag =
                (static_cast<std::uint64_t>(delta) << 1) ^
                static_cast<std::uint64_t>(delta >> 63);
            putVarint(bytes_, zigzag + 1);
            return;
        }
    }
    putVarint(bytes_, kRawToken);
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; b++)
        bytes_.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
}

TimelineSeries::Cursor::Cursor(const TimelineSeries &series)
    : series_(&series), last_(series.columns_.size(), 0),
      values_(series.columns_.size(), 0.0)
{
}

bool
TimelineSeries::Cursor::next()
{
    if (row_ == series_->ticks_.size()) return false;
    const std::vector<std::uint8_t> &in = series_->bytes_;
    for (std::size_t j = 0; j < values_.size(); j++) {
        const std::uint64_t token = getVarint(in, pos_);
        if (token == kRawToken) {
            std::uint64_t bits = 0;
            for (int b = 0; b < 8; b++)
                bits |= static_cast<std::uint64_t>(in[pos_ + b]) << (8 * b);
            pos_ += 8;
            values_[j] = std::bit_cast<double>(bits);
            continue;
        }
        const std::uint64_t zigzag = token - 1;
        auto delta = static_cast<std::int64_t>(zigzag >> 1);
        if (zigzag & 1) delta = ~delta;
        last_[j] += delta;
        values_[j] = static_cast<double>(last_[j]);
    }
    row_++;
    return true;
}

void
TimelineSeries::fold(Fingerprint &fp) const
{
    fp.addU64(columns_.size());
    for (const auto &c : columns_) fp.addString(c);
    fp.addU64(ticks_.size());
    for (Tick t : ticks_) fp.addU64(t);
    for (Cursor row = cursor(); row.next();)
        for (double v : row.values()) fp.addDouble(v);
}

// ---------------------------------------------------- EpochRecorder

EpochRecorder::EpochRecorder(const StatRegistry *reg,
                             std::vector<std::string> selectors)
    : reg_(reg), selectors_(std::move(selectors))
{
    JUMANJI_ASSERT(reg_ != nullptr, "recorder needs a registry");
}

void
EpochRecorder::record(Tick now)
{
    if (!resolved_) {
        series_ = TimelineSeries(reg_->leaves(selectors_));
        leaves_ = reg_->resolve(selectors_);
        resolved_ = true;
    }
    // Registration after the first record() would desynchronize rows
    // from the column header; registrations only add, so a same-size
    // selection has the same leaves.
    JUMANJI_INVARIANT(reg_->resolve(selectors_).size() == leaves_.size(),
                      "stats registered after the first epoch record");
    series_.appendRow(now,
                      [this](std::size_t j) { return leaves_[j].value(); });
}

// ---------------------------------------------- writeNestedStatsJson

namespace {

void
writeIndent(std::ostream &os, int depth)
{
    for (int i = 0; i < depth; i++) os << "  ";
}

/**
 * Emits the subtree of entries in [begin, end) that share the prefix
 * ending at @p depth path components. The input is sorted by name, so
 * each subtree occupies a contiguous range.
 */
void
writeSubtree(std::ostream &os,
             const std::vector<StatValue> &stats, std::size_t begin,
             std::size_t end, std::size_t prefixLen, int depth)
{
    os << "{";
    bool first = true;
    std::size_t i = begin;
    while (i < end) {
        const std::string &name = stats[i].name;
        std::size_t dot = name.find('.', prefixLen);
        std::string key = dot == std::string::npos
                              ? name.substr(prefixLen)
                              : name.substr(prefixLen, dot - prefixLen);
        if (!first) os << ",";
        first = false;
        os << '\n';
        writeIndent(os, depth + 1);
        os << '"' << key << "\": ";
        if (dot == std::string::npos) {
            os << formatNumber(stats[i].value);
            i++;
            continue;
        }
        // Group every entry sharing "prefix.key." into one child.
        std::string childPrefix = name.substr(0, dot + 1);
        std::size_t j = i;
        while (j < end &&
               stats[j].name.compare(0, childPrefix.size(),
                                     childPrefix) == 0)
            j++;
        writeSubtree(os, stats, i, j, childPrefix.size(), depth + 1);
        i = j;
    }
    if (!first) {
        os << '\n';
        writeIndent(os, depth);
    }
    os << "}";
}

} // namespace

void
writeNestedStatsJson(std::ostream &os,
                     const std::vector<StatValue> &stats, int indent)
{
    writeSubtree(os, stats, 0, stats.size(), 0, indent);
}

} // namespace jumanji
