#include "src/metrics/energy.hh"

namespace jumanji {

EnergyBreakdown
dataMovementEnergy(const AccessCounters &counters,
                   const EnergyParams &params)
{
    EnergyBreakdown e;
    e.l1 = static_cast<double>(counters.l1Hits + counters.l1Misses) *
           params.l1AccessPj;
    e.l2 = static_cast<double>(counters.l2Hits + counters.l2Misses) *
           params.l2AccessPj;
    e.llc = static_cast<double>(counters.llcHits + counters.llcMisses) *
            params.llcBankAccessPj;
    e.noc = static_cast<double>(counters.nocHops) * params.nocHopPj;
    e.mem = static_cast<double>(counters.memAccesses) * params.memAccessPj;
    return e;
}

} // namespace jumanji
