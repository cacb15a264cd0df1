#include "src/workloads/mixes.hh"

#include "src/sim/fingerprint.hh"
#include "src/sim/logging.hh"
#include "src/workloads/spec_like.hh"
#include "src/workloads/tail_latency.hh"

namespace jumanji {

std::string
randomBatchApp(Rng &rng)
{
    const auto &catalog = specAppCatalog();
    return catalog[rng.below(catalog.size())].name;
}

std::vector<std::string>
allTailAppNames()
{
    std::vector<std::string> names;
    for (const auto &p : tailAppCatalog()) names.push_back(p.name);
    return names;
}

WorkloadMix
makeMix(const std::vector<std::string> &lcNames, std::uint32_t vms,
        std::uint32_t batchPerVm, Rng &rng)
{
    if (lcNames.empty()) fatal("makeMix: need at least one LC app name");

    WorkloadMix mix;
    for (std::uint32_t v = 0; v < vms; v++) {
        VmSpec vm;
        vm.lcApps.push_back(lcNames[v % lcNames.size()]);
        for (std::uint32_t b = 0; b < batchPerVm; b++)
            vm.batchApps.push_back(randomBatchApp(rng));
        mix.vms.push_back(std::move(vm));
    }
    return mix;
}

WorkloadMix
soloMix(const std::string &lcName)
{
    WorkloadMix mix;
    mix.vms.push_back(VmSpec{{lcName}, {}});
    return mix;
}

WorkloadMix
regroupMix(const WorkloadMix &base, std::uint32_t vmCount)
{
    if (vmCount == 0) fatal("regroupMix: need at least one VM");

    std::vector<std::string> lc;
    std::vector<std::string> batch;
    for (const auto &vm : base.vms) {
        lc.insert(lc.end(), vm.lcApps.begin(), vm.lcApps.end());
        batch.insert(batch.end(), vm.batchApps.begin(),
                     vm.batchApps.end());
    }

    WorkloadMix mix;
    mix.vms.resize(vmCount);
    for (std::size_t i = 0; i < lc.size(); i++)
        mix.vms[i % vmCount].lcApps.push_back(lc[i]);
    for (std::size_t i = 0; i < batch.size(); i++)
        mix.vms[i % vmCount].batchApps.push_back(batch[i]);
    return mix;
}

void
foldMix(Fingerprint &fp, const WorkloadMix &mix)
{
    fp.addU64(mix.vms.size());
    for (const VmSpec &vm : mix.vms) {
        fp.addU64(vm.lcApps.size());
        for (const std::string &name : vm.lcApps) fp.addString(name);
        fp.addU64(vm.batchApps.size());
        for (const std::string &name : vm.batchApps) fp.addString(name);
    }
}

} // namespace jumanji
