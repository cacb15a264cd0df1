/**
 * @file
 * Micro-benchmarks of the substrate itself (google-benchmark):
 * cache-array access, UMON updates, miss-curve operations, the
 * lookahead allocators, the placers, and descriptor operations.
 * These bound the simulator's own costs and double as ablation
 * harnesses for data-structure choices.
 */

#include <benchmark/benchmark.h>

#include "src/cache/cache_array.hh"
#include "src/core/lookahead.hh"
#include "src/core/policies.hh"
#include "src/dnuca/umon.hh"
#include "src/dnuca/vtb.hh"
#include "src/sim/rng.hh"

namespace jumanji {
namespace {

void
BM_CacheArrayAccess(benchmark::State &state)
{
    auto repl = static_cast<ReplKind>(state.range(0));
    CacheArray array(512, 32, repl, 1);
    AccessOwner owner;
    owner.app = 0;
    owner.vc = 0;
    owner.vm = 0;
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            array.access(rng.below(32768), owner));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayAccess)
    ->Arg(static_cast<int>(ReplKind::LRU))
    ->Arg(static_cast<int>(ReplKind::SRRIP))
    ->Arg(static_cast<int>(ReplKind::DRRIP));

void
BM_UmonAccess(benchmark::State &state)
{
    UmonParams params;
    params.sets = 256;
    params.ways = 64;
    Umon umon(params, 327680); // 20 MB of 64 B lines
    Rng rng(1);
    for (auto _ : state) umon.access(rng.below(100000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UmonAccess);

void
BM_MissCurveConvexHull(benchmark::State &state)
{
    Rng rng(3);
    std::vector<double> pts(65);
    double v = 1e6;
    for (auto &p : pts) {
        p = v;
        v -= static_cast<double>(rng.below(20000));
        if (v < 0) v = 0;
    }
    MissCurve curve(pts);
    for (auto _ : state) benchmark::DoNotOptimize(curve.convexHull());
}
BENCHMARK(BM_MissCurveConvexHull);

void
BM_CombineOptimal(benchmark::State &state)
{
    Rng rng(4);
    std::vector<MissCurve> curves;
    for (int i = 0; i < state.range(0); i++) {
        std::vector<double> pts(65);
        double v = 1e5 + static_cast<double>(rng.below(100000));
        for (auto &p : pts) {
            p = v;
            v *= 0.8 + 0.15 * rng.uniform();
        }
        curves.emplace_back(pts);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(MissCurve::combineOptimal(curves));
}
BENCHMARK(BM_CombineOptimal)->Arg(4)->Arg(16);

PlacementGeometry
paperGeo()
{
    PlacementGeometry geo;
    geo.banks = 20;
    geo.waysPerBank = 32;
    geo.linesPerBank = 16384;
    geo.linesPerBucket = geo.totalLines() / 64;
    return geo;
}

std::vector<LookaheadClaim>
randomClaims(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<LookaheadClaim> claims(n);
    for (auto &claim : claims) {
        std::vector<double> pts(65);
        double v = 1e5 + static_cast<double>(rng.below(1000000));
        for (auto &p : pts) {
            p = v;
            v *= 0.75 + 0.2 * rng.uniform();
        }
        claim.curve = MissCurve(pts).convexHull();
    }
    return claims;
}

void
BM_Lookahead20Claims(benchmark::State &state)
{
    PlacementGeometry geo = paperGeo();
    auto claims = randomClaims(20, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            lookahead(claims, geo.totalLines(), geo));
}
BENCHMARK(BM_Lookahead20Claims);

void
BM_JumanjiLookahead(benchmark::State &state)
{
    PlacementGeometry geo = paperGeo();
    auto claims = randomClaims(4, 9);
    for (auto &c : claims) c.floorLines = geo.linesPerBank / 2;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            jumanjiLookahead(claims, geo.totalLines(), geo));
}
BENCHMARK(BM_JumanjiLookahead);

void
BM_FullJumanjiReconfigure(benchmark::State &state)
{
    // The paper reports 11.9 Mcycles per reconfiguration (~4.5 ms);
    // this measures our software implementation of the same step.
    PlacementGeometry geo = paperGeo();
    MeshParams mp;
    MeshTopology mesh(mp);

    EpochInputs in;
    in.geo = geo;
    in.mesh = &mesh;
    Rng rng(11);
    for (int i = 0; i < 20; i++) {
        VcInfo vc;
        vc.vc = i;
        vc.app = i;
        vc.vm = i / 5;
        vc.coreTile = static_cast<std::uint32_t>(i);
        vc.latencyCritical = (i % 5 == 0);
        vc.targetLines = 2048;
        std::vector<double> pts(65);
        double v = 1e5 + static_cast<double>(rng.below(1000000));
        for (auto &p : pts) {
            p = v;
            v *= 0.8;
        }
        vc.curve = MissCurve(pts).convexHull();
        in.vcs.push_back(std::move(vc));
    }

    JumanjiPolicy policy(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(policy.reconfigure(in));
}
BENCHMARK(BM_FullJumanjiReconfigure);

void
BM_DescriptorStabilize(benchmark::State &state)
{
    PlacementDescriptor prev, next;
    prev.fillProportional({{0, 3.0}, {1, 2.0}, {2, 1.0}});
    next.fillProportional({{0, 2.5}, {1, 2.5}, {2, 1.0}});
    for (auto _ : state)
        benchmark::DoNotOptimize(next.stabilizedAgainst(prev));
}
BENCHMARK(BM_DescriptorStabilize);

void
BM_DescriptorLookup(benchmark::State &state)
{
    PlacementDescriptor desc;
    std::vector<BankId> banks;
    for (BankId b = 0; b < 20; b++) banks.push_back(b);
    desc.fillStriped(banks);
    LineAddr line = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(desc.bankFor(line++));
}
BENCHMARK(BM_DescriptorLookup);

} // namespace
} // namespace jumanji

BENCHMARK_MAIN();
