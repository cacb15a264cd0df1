/**
 * @file
 * Fundamental simulator types shared by every subsystem.
 */

#ifndef JUMANJI_SIM_TYPES_HH
#define JUMANJI_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace jumanji {

/** Simulated time, in core clock cycles. */
using Tick = std::uint64_t;

/** Sentinel for "never" / unset ticks. */
constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

/** Cache-line-granular physical address (line id, not byte address). */
using LineAddr = std::uint64_t;

/** Identifies an application (one per core in our experiments). */
using AppId = std::int32_t;

/** Identifies a virtual cache (VC). */
using VcId = std::int32_t;

/** Identifies a trust domain (VM). */
using VmId = std::int32_t;

/** Identifies an LLC bank. */
using BankId = std::int32_t;

/** Identifies a core / tile. */
using CoreId = std::int32_t;

constexpr AppId kInvalidApp = -1;
constexpr VcId kInvalidVc = -1;
constexpr VmId kInvalidVm = -1;
constexpr BankId kInvalidBank = -1;

/** Bytes per cache line, fixed at 64 B as in the paper (Table II). */
constexpr std::uint64_t kLineBytes = 64;

} // namespace jumanji

#endif // JUMANJI_SIM_TYPES_HH
