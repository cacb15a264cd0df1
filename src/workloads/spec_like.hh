/**
 * @file
 * SPEC CPU2006-like synthetic batch applications.
 *
 * Each of the paper's sixteen SPEC applications is modelled as an
 * AddressStream (mixture of working sets shaping its LLC miss curve)
 * plus intensity parameters (LLC accesses per kilo-instruction, base
 * IPC). Parameters are chosen to mimic the broad published
 * characteristics of each benchmark: mcf/lbm/milc are memory-bound
 * with multi-MB footprints, libquantum streams, calculix/gcc are
 * compute-bound, omnetpp/xalancbmk are LLC-capacity-sensitive, etc.
 */

#ifndef JUMANJI_WORKLOADS_SPEC_LIKE_HH
#define JUMANJI_WORKLOADS_SPEC_LIKE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/cpu/app_model.hh"
#include "src/workloads/address_stream.hh"

namespace jumanji {

/** Static description of one SPEC-like application. */
struct SpecAppParams
{
    std::string name;
    /** LLC accesses per 1000 instructions. */
    double apki = 10.0;
    std::vector<WorkingSet> workingSets;
    AppTraits traits;
};

/** The sixteen applications used in the paper's footnote 1. */
const std::vector<SpecAppParams> &specAppCatalog();

/** Looks up catalog params by name. Fatal if unknown. */
const SpecAppParams &specAppParams(const std::string &name);

/**
 * A batch application: an endless loop of compute bursts punctuated
 * by LLC accesses from its address stream.
 */
class SpecLikeApp : public AppModel
{
  public:
    SpecLikeApp(const SpecAppParams &params, AppId app);

    const std::string &name() const override { return params_.name; }
    AppStep next(Tick now, Rng &rng) override;
    const AppTraits &traits() const override { return params_.traits; }

  private:
    SpecAppParams params_;
    AddressStream stream_;
    /** Instructions between consecutive LLC accesses on average. */
    double instrsPerAccess_ = 0.0;
};

} // namespace jumanji

#endif // JUMANJI_WORKLOADS_SPEC_LIKE_HH
