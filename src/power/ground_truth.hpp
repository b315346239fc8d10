// Bottom-up ground-truth power generator.
//
// This is the reproduction's stand-in for physics: the "true" power that the
// paper's calibrated 12 V instrumentation would measure. It is deliberately
// *not* of the same functional form as the paper's regression model
// (Equation 1):
//
//   * dynamic energy is accounted per microarchitectural event (uops, loads,
//     stores, cache/TLB transactions, branch-flush work) scaled by V², plus
//     AVX-unit and uop-expansion components that **no Haswell PAPI preset
//     exposes** — these produce the per-workload systematic bias the paper
//     observes (Fig. 5);
//   * leakage follows V·exp(T/T0) with die temperature solved as a fixed
//     point of the lumped thermal model — a nonlinearity Eq. 1 approximates
//     with γ·V;
//   * the voltage-regulator input conversion adds a load-dependent
//     efficiency, and the socket's DRAM-side IMC power follows bytes moved
//     with a per-socket bandwidth ceiling.
//
// The estimation pipeline never reads anything from this header except
// through the simulated sensors; tests do, to verify decompositions.
#pragma once

#include <cstddef>

#include "cpu/thermal.hpp"
#include "pmc/activity.hpp"

namespace pwx::power {

/// Per-event dynamic energies in nanojoules at the reference voltage (1.0 V).
/// All dynamic contributions scale with (V/Vref)².
struct EnergyTable {
  double per_cycle_nj = 0.55;        ///< clock tree + always-on per unhalted cycle
  double per_uop_nj = 0.36;          ///< issue/execute/retire per micro-op
  double per_avx256_nj = 0.26;       ///< extra energy per 256-bit SIMD instruction
  double per_load_nj = 0.18;         ///< L1D read access
  double per_store_nj = 0.24;        ///< L1D write access
  double per_l2_access_nj = 1.9;
  double per_l3_access_nj = 5.5;
  double per_dram_access_nj = 17.0;  ///< IMC + link portion of an L3 miss
  double per_prefetch_nj = 2.8;      ///< uncore transaction per HW prefetch miss
  double per_branch_misp_nj = 8.0;   ///< pipeline flush + refill wasted work
  double per_tlb_walk_nj = 3.5;      ///< page-table walk (4 memory accesses)
  double per_snoop_nj = 1.2;
  double per_dram_byte_nj = 0.085;   ///< IMC dynamic per byte moved
};

/// Leakage and constant parameters.
struct StaticParameters {
  double core_leak_watts = 1.15;      ///< per core at 1.0 V, 50 C
  double leak_temp_ref_c = 50.0;
  double leak_temp_scale_c = 38.0;    ///< leakage e-folding temperature
  double gated_leak_fraction = 0.35;  ///< leakage remaining when a core idles
  double uncore_static_watts = 13.5;  ///< L3/ring/IMC static per socket
  double board_watts = 4.0;           ///< true deltaZ: fixed 12 V rail loads
  double reference_voltage = 1.0;
  double socket_dram_bandwidth_gbs = 58.0;  ///< IMC ceiling per socket
};

/// Aggregated activity of one socket over one measurement interval, as the
/// generator consumes it. Produced by the execution simulator.
struct SocketActivity {
  pmc::ActivityCounts counts;      ///< native events summed over the socket's cores
  double avx256_instructions = 0;  ///< hidden: 256-bit SIMD instruction count
  double uops = 0;                 ///< hidden: micro-ops issued
  double dram_bytes = 0;           ///< hidden: bytes moved through the IMC
  double duration_s = 0;
  double frequency_ghz = 0;
  double voltage = 0;              ///< true core VDD during the interval
  std::size_t active_cores = 0;    ///< cores running workload threads
  std::size_t total_cores = 12;    ///< cores present on the socket
  /// Content-dependent scaling of the core dynamic energy: the same
  /// instruction stream burns different power depending on operand values
  /// and data placement. Constant per (workload, f, threads) configuration —
  /// invisible to every counter.
  double dynamic_scale = 1.0;
  /// Configuration-dependent baseline shift (watts): fan operating point,
  /// VR state, background services — fixed 12 V rail consumers that differ
  /// between experiment configurations but not within one.
  double baseline_offset_watts = 0.0;
};

/// Decomposed socket power (watts, at the package before VR conversion).
struct PowerBreakdown {
  double core_dynamic = 0;
  double hidden_dynamic = 0;   ///< AVX + uop-expansion share of core dynamic
  double uncore_dynamic = 0;
  double core_leakage = 0;
  double uncore_static = 0;
  double board = 0;
  double die_temperature_c = 0;
  double package_total() const {
    return core_dynamic + hidden_dynamic + uncore_dynamic + core_leakage +
           uncore_static;
  }
};

/// The ground-truth generator. Deterministic: all randomness (sensor noise,
/// workload variability) lives elsewhere.
class GroundTruthPower {
public:
  GroundTruthPower(EnergyTable energies, StaticParameters statics,
                   cpu::ThermalModel thermal);

  /// Defaults tuned so a dual E5-2690v3 spans ~75 W (idle) to ~290 W
  /// (AVX stress) at the 12 V inputs — the paper platform's envelope.
  static GroundTruthPower haswell_ep();

  /// Power drawn at the socket's 12 V input over the interval, plus the
  /// decomposition (pre-VR). Solves the leakage/temperature fixed point.
  PowerBreakdown socket_power(const SocketActivity& activity) const;

  /// 12 V input watts for a breakdown (applies VR efficiency to the package
  /// power and adds the board share).
  double input_watts(const PowerBreakdown& breakdown) const;

  /// Convenience: socket_power + input_watts.
  double socket_input_watts(const SocketActivity& activity) const;

  const EnergyTable& energies() const { return energies_; }
  const StaticParameters& statics() const { return statics_; }

  /// Voltage-regulator efficiency at a given package load.
  static double vr_efficiency(double package_watts);

  /// The natives socket_power reads, found by pmc::probe_natives_read. Every
  /// count it reads enters with an energy factor, and 0·NaN is NaN, so the
  /// set is the same for every energy table.
  static pmc::NativeSet natives_read();

private:
  EnergyTable energies_;
  StaticParameters statics_;
  cpu::ThermalModel thermal_;
};

}  // namespace pwx::power
