/**
 * @file
 * The simulator-wide observability layer, part 1: a hierarchical
 * statistics registry plus an epoch-rate time-series recorder.
 *
 * Every component registers its stats under a dotted name
 * ("llc.bank07.hits", "dnuca.vtb.invalidations", "noc.hopHist") when
 * the System is assembled; the registry then provides one uniform
 * surface for
 *   - machine-readable end-of-run dumps (nested JSON),
 *   - deterministic fingerprinting (the --selfcheck stream),
 *   - per-epoch time series (EpochRecorder), and
 *   - ad-hoc queries by name (benches, tests).
 *
 * Registration follows the gem5/ZSim discipline: nodes do not own the
 * underlying values, they *bind* to them — a Counter holds a pointer
 * to the component's live std::uint64_t, a Gauge/Formula holds a
 * callback, a Distribution binds a SampleStat. Reading the registry
 * therefore never perturbs simulation state, and components keep
 * their existing hot-path accounting untouched.
 *
 * Names: lowercase dotted paths. Registering the same name twice is
 * a programming error and panics. The registry is ordered by name,
 * so every dump, snapshot, and fingerprint fold is deterministic.
 */

#ifndef JUMANJI_SIM_STATREG_HH
#define JUMANJI_SIM_STATREG_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/sim/fingerprint.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace jumanji {

/** One scalar leaf of a registry snapshot. */
struct StatValue
{
    std::string name;
    double value = 0.0;
};

/**
 * The hierarchical stats registry. One instance per System; tests
 * and tools may build standalone instances.
 */
class StatRegistry
{
    struct Node;

  public:
    /** Node flavours (the JSON dump tags leaves by kind). */
    enum class Kind
    {
        Counter,      ///< monotonically increasing event count
        Gauge,        ///< instantaneous sampled value
        Distribution, ///< SampleStat summary
        Formula,      ///< value derived from other stats
    };

    /** Binds @p value (must outlive the registry) as a counter. */
    void addCounter(const std::string &name, const std::string &desc,
                    const std::uint64_t *value);

    /** Registers a sampled instantaneous value. */
    void addGauge(const std::string &name, const std::string &desc,
                  std::function<double()> read);

    /** Registers a derived metric (ratio, normalization, ...). */
    void addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> eval);

    /**
     * Binds a SampleStat; expands to .count/.mean/.min/.max/
     * .p50/.p95/.p99 leaves in snapshots.
     */
    void addDistribution(const std::string &name,
                         const std::string &desc,
                         const SampleStat *samples);

    bool has(const std::string &name) const;
    std::size_t size() const { return nodes_.size(); }

    /**
     * Current value of a scalar node (Counter/Gauge/Formula), or of
     * a snapshot leaf ("apps.a00.reqLatency.p95"). Panics when the
     * name resolves to nothing.
     */
    double value(const std::string &name) const;

    /**
     * Flat snapshot of every leaf, ordered by name. Distributions
     * expand to their summary leaves.
     */
    std::vector<StatValue> snapshot() const;

    /**
     * Snapshot restricted to nodes whose dotted name starts with any
     * of @p selectors (exact names also match).
     */
    std::vector<StatValue>
    snapshot(const std::vector<std::string> &selectors) const;

    /** Leaf names that a selected snapshot would contain. */
    std::vector<std::string>
    leaves(const std::vector<std::string> &selectors) const;

    /**
     * One snapshot leaf bound to its node and summary part, so that
     * reading it needs no name or selector matching. Valid for the
     * registry's lifetime, across later registrations too: it points
     * at a map node, not into the leaf cache.
     */
    class Leaf
    {
      public:
        double value() const { return leafValue(*node_, part_); }

      private:
        friend class StatRegistry;
        Leaf(const Node *node, int part) : node_(node), part_(part) {}

        const Node *node_;
        int part_;
    };

    /**
     * The leaves snapshot(selectors) would contain, in the same
     * order. The epoch recorder resolves its columns once and then
     * reads only these each epoch.
     */
    std::vector<Leaf>
    resolve(const std::vector<std::string> &selectors) const;

  private:
    struct Node
    {
        Kind kind = Kind::Counter;
        std::string desc;
        const std::uint64_t *counter = nullptr;
        std::function<double()> read;
        const SampleStat *samples = nullptr;
    };

    /**
     * One snapshot leaf in the cached, name-sorted expansion of the
     * registry. Scalar nodes yield one leaf (part == -1);
     * distributions yield one leaf per summary component.
     */
    struct LeafRef
    {
        std::string name;
        /** Owning node's registered name (selector matching). */
        const std::string *nodeName;
        const Node *node;
        int part;
    };

    const Node &insert(const std::string &name, Node node);
    void appendLeaves(const std::string &name, const Node &node,
                      std::vector<StatValue> &out) const;
    static int partCount(const Node &node);
    static std::string partName(const std::string &name, int part);
    static double leafValue(const Node &node, int part);
    void ensureLeafCache() const;

    /** Ordered by name: all walks are deterministic. */
    std::map<std::string, Node> nodes_;

    /**
     * Leaf expansion sorted by leaf name, rebuilt lazily after any
     * registration. Snapshots and dumps reuse this order instead of
     * re-sorting on every call; node names and Node slots are
     * pointer-stable (map nodes), so cached pointers stay valid.
     */
    mutable std::vector<LeafRef> leafCache_;
    mutable bool leafCacheValid_ = false;
};

/**
 * A recorded per-epoch time series: one row per record() call over a
 * fixed set of snapshot-leaf columns. RunResult carries one of these
 * so timelines survive the System that produced them.
 */
struct TimelineSeries
{
    std::vector<std::string> columns;
    std::vector<Tick> ticks;
    /** rows[i][j] = value of columns[j] at ticks[i]. */
    std::vector<std::vector<double>> rows;

    bool empty() const { return ticks.empty(); }

    /** Index of @p column, or npos. */
    std::size_t columnIndex(const std::string &column) const;

    void fold(Fingerprint &fp) const;
};

/**
 * The epoch recorder: snapshots a configurable stat subset each
 * placement epoch. Columns are resolved from the selectors on the
 * first record() (i.e. after all components have registered) and
 * stay fixed for the life of the recorder; each record() reads only
 * the resolved leaves.
 */
class EpochRecorder
{
  public:
    /**
     * @param reg Registry to sample (must outlive the recorder).
     * @param selectors Dotted-name prefixes selecting the columns.
     */
    EpochRecorder(const StatRegistry *reg,
                  std::vector<std::string> selectors);

    /** Appends one row sampled at @p now. */
    void record(Tick now);

    std::size_t epochs() const { return series_.ticks.size(); }
    const TimelineSeries &series() const { return series_; }

  private:
    const StatRegistry *reg_;
    std::vector<std::string> selectors_;
    bool resolved_ = false;
    /** The columns' leaves, resolved by the first record(). */
    std::vector<StatRegistry::Leaf> leaves_;
    TimelineSeries series_;
};

/**
 * Renders a flat, sorted (name, value) list as nested JSON by
 * splitting names on '.' — the CLI's --stats-json export.
 */
void writeNestedStatsJson(std::ostream &os,
                          const std::vector<StatValue> &stats,
                          int indent = 0);

/** Formats a non-negative index as a fixed-width decimal ("07"). */
std::string statIndexName(std::uint64_t index, int width = 2);

} // namespace jumanji

#endif // JUMANJI_SIM_STATREG_HH
