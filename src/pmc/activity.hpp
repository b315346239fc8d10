// Native microarchitectural activity and its projection onto PAPI presets.
//
// The execution simulator produces ActivityCounts — the "162 native events"
// layer of the paper's platform, reduced to the fundamental quantities that
// the PAPI presets are derived from. pmc::preset_value() is the preset
// derivation table: every preset in the catalogue is a (possibly composite)
// view of this record. Keeping the native layer explicit means the simulator
// never has to know about PAPI, and counter semantics (e.g. L1_TCM =
// L1_DCM + L1_ICM) are encoded once, here.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "pmc/events.hpp"

namespace pwx::pmc {

/// Accumulated native event counts over one measurement interval on one core
/// (or summed over cores). All members are event counts (doubles so that
/// scaled/averaged records remain representable).
struct ActivityCounts {
  // Cycles.
  double cycles = 0;          ///< unhalted core clock cycles
  double ref_cycles = 0;      ///< unhalted reference (TSC-rate) cycles

  // Instructions retired, by class.
  double instructions = 0;
  double load_ins = 0;
  double store_ins = 0;
  double branch_cn = 0;       ///< conditional branches
  double branch_ucn = 0;      ///< unconditional branches
  double branch_taken = 0;    ///< conditional taken
  double branch_misp = 0;     ///< conditional mispredicted

  // L1 cache.
  double l1d_load_miss = 0;
  double l1d_store_miss = 0;
  double l1i_miss = 0;

  // L2 cache.
  double l2_data_read = 0;    ///< data reads arriving at L2
  double l2_data_write = 0;   ///< data writes (L1 writebacks/RFOs) at L2
  double l2_inst_read = 0;    ///< instruction reads at L2
  double l2_load_miss = 0;
  double l2_store_miss = 0;
  double l2_inst_miss = 0;

  // L3 cache.
  double l3_data_read = 0;
  double l3_data_write = 0;
  double l3_inst_read = 0;
  double l3_load_miss = 0;    ///< demand loads missing L3 (to DRAM)
  double l3_total_miss = 0;   ///< all L3 misses including writebacks/prefetch

  // TLB.
  double tlb_data_miss = 0;
  double tlb_inst_miss = 0;

  // Prefetch.
  double prefetch_miss = 0;   ///< HW data prefetches missing the cache

  // Coherence traffic.
  double snoop_requests = 0;
  double shared_access = 0;
  double clean_exclusive = 0;
  double invalidations = 0;

  // Pipeline issue/completion histogram, as cycle counts.
  double stall_issue_cycles = 0;  ///< cycles with no uop issued
  double full_issue_cycles = 0;   ///< cycles at max issue width
  double stall_compl_cycles = 0;  ///< cycles with no instruction completed
  double full_compl_cycles = 0;   ///< cycles at max completion width
  double resource_stall_cycles = 0;
  double mem_write_stall_cycles = 0;

  /// Element-wise accumulation (merging cores or intervals).
  ActivityCounts& operator+=(const ActivityCounts& other);

  /// Element-wise scaling (e.g. dividing by run count to average).
  ActivityCounts& operator*=(double factor);
};

/// Number of natives. ActivityCounts is a pure aggregate of doubles, and
/// native i is its i-th field.
inline constexpr std::size_t kNativeCount = sizeof(ActivityCounts) / sizeof(double);
static_assert(sizeof(ActivityCounts) == kNativeCount * sizeof(double),
              "ActivityCounts must stay a pure aggregate of doubles");

/// A set of natives: bit i stands for native i.
using NativeSet = std::uint64_t;
static_assert(kNativeCount <= 64, "a NativeSet holds at most 64 natives");
inline constexpr NativeSet kAllNatives = (NativeSet{1} << kNativeCount) - 1;

/// The NativeSet bit of an ActivityCounts field: PWX_NATIVE(l1i_miss).
#define PWX_NATIVE(field)                   \
  (::pwx::pmc::NativeSet{1}                 \
   << (offsetof(::pwx::pmc::ActivityCounts, field) / sizeof(double)))

/// Value of a PAPI preset derived from native counts. Every preset in the
/// catalogue is defined (including the ones unavailable on Haswell-EP, which
/// model other x86 generations).
double preset_value(Preset preset, const ActivityCounts& counts);

/// The natives that `reader`, a function of an ActivityCounts returning a
/// double, reads: it is handed a record of ones with one native NaN at a time,
/// and reads that native when it returns NaN. So the set cannot drift from
/// the function it is taken from.
template <class Reader>
NativeSet probe_natives_read(Reader&& reader) {
  NativeSet read = 0;
  for (std::size_t n = 0; n < kNativeCount; ++n) {
    std::array<double, kNativeCount> probe;
    probe.fill(1.0);
    probe[n] = std::numeric_limits<double>::quiet_NaN();
    if (std::isnan(reader(std::bit_cast<ActivityCounts>(probe)))) {
      read |= NativeSet{1} << n;
    }
  }
  return read;
}

/// The natives that preset_value() reads for any of `presets`, found by
/// probe_natives_read.
NativeSet natives_read_by(std::span<const Preset> presets);

}  // namespace pwx::pmc
