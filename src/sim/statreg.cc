#include "src/sim/statreg.hh"

#include <algorithm>
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

std::size_t
TimelineSeries::columnIndex(const std::string &column) const
{
    for (std::size_t i = 0; i < columns.size(); i++)
        if (columns[i] == column) return i;
    return static_cast<std::size_t>(-1);
}

void
TimelineSeries::fold(Fingerprint &fp) const
{
    fp.addU64(columns.size());
    for (const auto &c : columns) fp.addString(c);
    fp.addU64(ticks.size());
    for (Tick t : ticks) fp.addU64(t);
    for (const auto &row : rows)
        for (double v : row) fp.addDouble(v);
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
        series_.columns = reg_->leaves(selectors_);
        leaves_ = reg_->resolve(selectors_);
        resolved_ = true;
    }
    // Registration after the first record() would desynchronize rows
    // from the column header; registrations only add, so a same-size
    // selection has the same leaves.
    JUMANJI_INVARIANT(reg_->resolve(selectors_).size() == leaves_.size(),
                      "stats registered after the first epoch record");
    std::vector<double> row;
    row.reserve(leaves_.size());
    for (const StatRegistry::Leaf &leaf : leaves_)
        row.push_back(leaf.value());
    series_.ticks.push_back(now);
    series_.rows.push_back(std::move(row));
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
