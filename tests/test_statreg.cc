/**
 * @file
 * Unit tests for the hierarchical stats registry and the epoch
 * time-series recorder (src/sim/statreg.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {
namespace {

TEST(StatRegistry, CounterBindsLiveValue)
{
    std::uint64_t hits = 0;
    StatRegistry reg;
    reg.addCounter("llc.bank00.hits", "bank hits", &hits);
    EXPECT_TRUE(reg.has("llc.bank00.hits"));
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.value("llc.bank00.hits"), 0.0);
    hits = 42; // registry reads through, never copies
    EXPECT_DOUBLE_EQ(reg.value("llc.bank00.hits"), 42.0);
}

TEST(StatRegistry, GaugeAndFormulaEvaluateOnRead)
{
    double level = 1.5;
    StatRegistry reg;
    reg.addGauge("mem.queue", "queue depth", [&] { return level; });
    reg.addFormula("mem.queue2x", "doubled", [&] { return 2 * level; });
    EXPECT_DOUBLE_EQ(reg.value("mem.queue"), 1.5);
    level = 4.0;
    EXPECT_DOUBLE_EQ(reg.value("mem.queue"), 4.0);
    EXPECT_DOUBLE_EQ(reg.value("mem.queue2x"), 8.0);
}

TEST(StatRegistry, DottedLookupResolvesDistributionLeaves)
{
    SampleStat lat;
    for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) lat.add(v);
    StatRegistry reg;
    reg.addDistribution("apps.a00.reqLatency", "latency", &lat);
    EXPECT_TRUE(reg.has("apps.a00.reqLatency"));
    // Leaves resolve through value() even though only the parent node
    // is registered.
    EXPECT_DOUBLE_EQ(reg.value("apps.a00.reqLatency.count"), 5.0);
    EXPECT_DOUBLE_EQ(reg.value("apps.a00.reqLatency.mean"), 30.0);
    EXPECT_DOUBLE_EQ(reg.value("apps.a00.reqLatency.min"), 10.0);
    EXPECT_DOUBLE_EQ(reg.value("apps.a00.reqLatency.max"), 50.0);
    EXPECT_DOUBLE_EQ(reg.value("apps.a00.reqLatency.p50"), 30.0);
}

TEST(StatRegistry, UnknownNamePanics)
{
    StatRegistry reg;
    // lint-allow: stat-xref unbound on purpose; asserts the panic
    EXPECT_THROW(reg.value("no.such.stat"), PanicError);
}

TEST(StatRegistry, DuplicateNamePanics)
{
    std::uint64_t v = 0;
    StatRegistry reg;
    reg.addCounter("a.b", "first", &v);
    EXPECT_THROW(reg.addCounter("a.b", "again", &v), PanicError);
}

TEST(StatRegistry, ParentChildCollisionPanics)
{
    std::uint64_t v = 0;
    StatRegistry reg;
    reg.addCounter("a.b", "leaf", &v);
    // "a.b" is a leaf; "a.b.c" would make it a subtree too, which the
    // nested JSON dump cannot represent.
    EXPECT_THROW(reg.addCounter("a.b.c", "child of leaf", &v),
                 PanicError);
    StatRegistry reg2;
    reg2.addCounter("a.b.c", "leaf", &v);
    EXPECT_THROW(reg2.addCounter("a.b", "parent of leaf", &v),
                 PanicError);
}

TEST(StatRegistry, InvalidNamePanics)
{
    std::uint64_t v = 0;
    StatRegistry reg;
    EXPECT_THROW(reg.addCounter("", "empty", &v), PanicError);
    EXPECT_THROW(reg.addCounter(".leading", "dot", &v), PanicError);
    EXPECT_THROW(reg.addCounter("trailing.", "dot", &v), PanicError);
    EXPECT_THROW(reg.addCounter("a..b", "double dot", &v), PanicError);
    EXPECT_THROW(reg.addCounter("a b", "space", &v), PanicError);
}

TEST(StatRegistry, SnapshotIsSortedByName)
{
    std::uint64_t v = 7;
    SampleStat s;
    s.add(1.0);
    StatRegistry reg;
    // Registered out of order on purpose; distribution leaf expansion
    // (.count/.mean/...) is also not alphabetical at the source.
    reg.addCounter("z.last", "z", &v);
    reg.addDistribution("m.dist", "d", &s);
    reg.addCounter("a.first", "a", &v);
    auto snap = reg.snapshot();
    ASSERT_GE(snap.size(), 3u);
    for (std::size_t i = 1; i < snap.size(); i++)
        EXPECT_LT(snap[i - 1].name, snap[i].name);
}

TEST(StatRegistry, SelectorSnapshotFiltersByPrefix)
{
    std::uint64_t a = 1, b = 2, c = 3;
    StatRegistry reg;
    reg.addCounter("llc.bank00.hits", "", &a);
    reg.addCounter("llc.bank01.hits", "", &b);
    reg.addCounter("noc.hops", "", &c);
    auto snap = reg.snapshot({"llc.bank"});
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "llc.bank00.hits");
    EXPECT_EQ(snap[1].name, "llc.bank01.hits");
    // Exact names also match.
    auto exact = reg.snapshot({"noc.hops"});
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_DOUBLE_EQ(exact[0].value, 3.0);
}

TEST(StatRegistry, JsonDumpGolden)
{
    std::uint64_t hits = 10, misses = 2;
    StatRegistry reg;
    reg.addCounter("llc.hits", "hits", &hits);
    reg.addCounter("llc.misses", "misses", &misses);
    reg.addGauge("sys.util", "utilization", [] { return 0.5; });
    std::ostringstream os;
    writeNestedStatsJson(os, reg.snapshot());
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"llc\": {\n"
              "    \"hits\": 10,\n"
              "    \"misses\": 2\n"
              "  },\n"
              "  \"sys\": {\n"
              "    \"util\": 0.5\n"
              "  }\n"
              "}");
}

TEST(StatRegistry, FoldIsOrderIndependentOfRegistration)
{
    std::uint64_t x = 5, y = 9;
    StatRegistry a, b;
    a.addCounter("one", "", &x);
    a.addCounter("two", "", &y);
    b.addCounter("two", "", &y);
    b.addCounter("one", "", &x);
    const std::vector<StatValue> sa = a.snapshot();
    const std::vector<StatValue> sb = b.snapshot();
    ASSERT_EQ(sa.size(), 2u);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); i++) {
        EXPECT_EQ(sa[i].name, sb[i].name);
        EXPECT_EQ(sa[i].value, sb[i].value);
    }
    EXPECT_EQ(sa[0].name, "one");
}

TEST(EpochRecorder, RecordsSelectedColumnsPerEpoch)
{
    std::uint64_t hits = 0;
    double util = 0.0;
    SampleStat lat;
    StatRegistry reg;
    reg.addCounter("llc.hits", "", &hits);
    reg.addDistribution("llc.lat", "", &lat);
    reg.addGauge("sys.util", "", [&] { return util; });
    reg.addCounter("noise.ignored", "", &hits);

    // "llc." and "llc.lat" overlap; each leaf is still one column.
    const std::vector<std::string> selectors = {"llc.", "sys.", "llc.lat"};
    EpochRecorder rec(&reg, selectors);
    // Small-integer samples keep mean() exact in any storage order, so
    // a snapshot right after a record must repeat the row exactly.
    const std::vector<std::vector<double>> batches = {
        {5, 1, 3}, {2, 9, 1, 4}, {}, {7, 7, 0, 12, 3}};
    std::vector<std::vector<StatValue>> after;
    for (std::size_t e = 0; e < batches.size(); e++) {
        hits = 10 + 20 * e;
        util = 0.25 * static_cast<double>(e);
        for (double v : batches[e]) lat.add(v);
        rec.record(1000 * (e + 1));
        after.push_back(reg.snapshot(selectors));
    }

    EXPECT_EQ(rec.epochs(), batches.size());
    const TimelineSeries &ts = rec.series();
    ASSERT_EQ(ts.columns.size(), 9u);
    EXPECT_EQ(ts.columns[0], "llc.hits");
    EXPECT_EQ(ts.columns[1], "llc.lat.count");
    EXPECT_EQ(ts.columns[8], "sys.util");
    EXPECT_EQ(ts.columnIndex("sys.util"), 8u);
    ASSERT_EQ(ts.rows.size(), batches.size());
    EXPECT_EQ(ts.ticks[0], 1000u);
    EXPECT_DOUBLE_EQ(ts.rows[0][0], 10.0);
    EXPECT_DOUBLE_EQ(ts.rows[0][8], 0.0);
    EXPECT_DOUBLE_EQ(ts.rows[1][0], 30.0);
    EXPECT_DOUBLE_EQ(ts.rows[1][8], 0.25);
    EXPECT_DOUBLE_EQ(ts.rows[3][1], 12.0);
    EXPECT_DOUBLE_EQ(ts.rows[3][ts.columnIndex("llc.lat.max")], 12.0);
    EXPECT_DOUBLE_EQ(ts.rows[3][ts.columnIndex("llc.lat.min")], 0.0);
    for (std::size_t e = 0; e < batches.size(); e++) {
        ASSERT_EQ(after[e].size(), ts.columns.size());
        for (std::size_t c = 0; c < ts.columns.size(); c++) {
            EXPECT_EQ(after[e][c].name, ts.columns[c]);
            EXPECT_EQ(after[e][c].value, ts.rows[e][c])
                << "epoch " << e << " column " << ts.columns[c];
        }
    }
}

TEST(EpochRecorder, LateRegistrationOfASelectedStatIsCaught)
{
    std::uint64_t v = 1;
    StatRegistry reg;
    reg.addCounter("llc.hits", "", &v);
    EpochRecorder rec(&reg, {"llc."});
    rec.record(1000);
    // An unselected stat rebuilds the registry's leaf cache but leaves
    // the columns, and the resolved leaves, intact.
    reg.addCounter("noc.hops", "", &v);
    v = 5;
    rec.record(2000);
    EXPECT_DOUBLE_EQ(rec.series().rows[1][0], 5.0);
    // A selected one would need a column the header lacks.
    reg.addCounter("llc.misses", "", &v);
    if (checksActiveInCore()) {
        EXPECT_THROW(rec.record(3000), PanicError);
    } else {
        rec.record(3000);
        EXPECT_EQ(rec.series().rows.back().size(), 1u);
    }
}

TEST(TimelineSeries, FoldCoversNamesTicksAndValues)
{
    TimelineSeries a;
    a.columns = {"x"};
    a.ticks = {5};
    a.rows = {{1.0}};
    TimelineSeries b = a;
    Fingerprint fa, fb;
    a.fold(fa);
    b.fold(fb);
    EXPECT_EQ(fa.value(), fb.value());

    b.rows[0][0] = 2.0;
    Fingerprint fc;
    b.fold(fc);
    EXPECT_NE(fa.value(), fc.value());
}

TEST(StatIndexName, FixedWidthFormatting)
{
    EXPECT_EQ(statIndexName(0), "00");
    EXPECT_EQ(statIndexName(7), "07");
    EXPECT_EQ(statIndexName(42), "42");
    EXPECT_EQ(statIndexName(123), "123"); // grows past the pad width
    EXPECT_EQ(statIndexName(3, 4), "0003");
}

} // namespace
} // namespace jumanji
