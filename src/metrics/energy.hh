/**
 * @file
 * Dynamic data-movement energy model (Fig. 15).
 *
 * Converts AccessCounters into energy split by level — L1, L2, LLC
 * bank, NoC, and memory — using per-event energies in the spirit of
 * Jenga [79]. Absolute joules are not the point (the paper reports
 * normalized energy); the per-level ratios are what shape Fig. 15.
 */

#ifndef JUMANJI_METRICS_ENERGY_HH
#define JUMANJI_METRICS_ENERGY_HH

#include "src/sim/stats.hh"

namespace jumanji {

/** Per-event dynamic energies, picojoules. */
struct EnergyParams
{
    double l1AccessPj = 15.0;
    double l2AccessPj = 50.0;
    double llcBankAccessPj = 250.0;
    /** Per hop, per 64 B message (data flits dominate). */
    double nocHopPj = 65.0;
    double memAccessPj = 6300.0;
};

/** Energy broken down by level, picojoules. */
struct EnergyBreakdown
{
    double l1 = 0.0;
    double l2 = 0.0;
    double llc = 0.0;
    double noc = 0.0;
    double mem = 0.0;

    double total() const { return l1 + l2 + llc + noc + mem; }

    EnergyBreakdown &
    operator+=(const EnergyBreakdown &o)
    {
        l1 += o.l1;
        l2 += o.l2;
        llc += o.llc;
        noc += o.noc;
        mem += o.mem;
        return *this;
    }
};

/** Computes the breakdown for a set of counters. */
EnergyBreakdown dataMovementEnergy(const AccessCounters &counters,
                                   const EnergyParams &params = {});

} // namespace jumanji

#endif // JUMANJI_METRICS_ENERGY_HH
