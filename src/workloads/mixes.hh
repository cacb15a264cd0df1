/**
 * @file
 * Workload-mix construction for the paper's experiments: random
 * batch mixes from the 16-app SPEC catalog, LC-app selections
 * (copies of one app, or the "Mixed" selection), and the VM
 * regroupings of the Fig. 17 scaling study.
 */

#ifndef JUMANJI_WORKLOADS_MIXES_HH
#define JUMANJI_WORKLOADS_MIXES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/rng.hh"

namespace jumanji {

/** One VM's application list. */
struct VmSpec
{
    std::vector<std::string> lcApps;
    std::vector<std::string> batchApps;
};

/** A fully specified experiment workload. */
struct WorkloadMix
{
    std::vector<VmSpec> vms;

    std::uint32_t
    totalApps() const
    {
        std::uint32_t n = 0;
        for (const auto &vm : vms)
            n += static_cast<std::uint32_t>(vm.lcApps.size() +
                                            vm.batchApps.size());
        return n;
    }
};

/**
 * Builds the paper's default scenario: @p vms VMs, each with one LC
 * app and @p batchPerVm random batch apps.
 *
 * @param lcNames If one name, every VM runs a copy of it; if several,
 *        VMs cycle through them ("Mixed").
 */
WorkloadMix makeMix(const std::vector<std::string> &lcNames,
                    std::uint32_t vms, std::uint32_t batchPerVm,
                    Rng &rng);

/**
 * One VM running only @p lcName: the mix a deadline is calibrated
 * on, and the solo baseline of the hand-driven exhibits.
 */
WorkloadMix soloMix(const std::string &lcName);

/**
 * Regroups the standard 4 LC + 16 batch population into @p vmCount
 * VMs (Fig. 17): apps are dealt round-robin so every VM keeps a
 * balanced share of LC and batch applications.
 */
WorkloadMix regroupMix(const WorkloadMix &base, std::uint32_t vmCount);

/** Uniformly random batch app name from the 16-app catalog. */
std::string randomBatchApp(Rng &rng);

/** The five LC app names, catalog order. */
std::vector<std::string> allTailAppNames();

class Fingerprint;

/**
 * Folds the full workload spec (VM structure plus every app name, in
 * order) into @p fp — the mix half of the driver's result-cache key.
 */
void foldMix(Fingerprint &fp, const WorkloadMix &mix);

} // namespace jumanji

#endif // JUMANJI_WORKLOADS_MIXES_HH
