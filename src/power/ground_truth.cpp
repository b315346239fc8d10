#include "power/ground_truth.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pwx::power {

GroundTruthPower::GroundTruthPower(EnergyTable energies, StaticParameters statics,
                                   cpu::ThermalModel thermal)
    : energies_(energies), statics_(statics), thermal_(thermal) {
  PWX_REQUIRE(statics_.reference_voltage > 0.0, "reference voltage must be positive");
  PWX_REQUIRE(statics_.socket_dram_bandwidth_gbs > 0.0, "bandwidth must be positive");
}

GroundTruthPower GroundTruthPower::haswell_ep() {
  return GroundTruthPower(EnergyTable{}, StaticParameters{}, cpu::ThermalModel{});
}

double GroundTruthPower::vr_efficiency(double package_watts) {
  // Buck converters are least efficient at light load; 84 % rising towards
  // 90 % under heavy load is typical for a server VRM.
  return 0.84 + 0.055 * package_watts / (package_watts + 60.0);
}

pmc::NativeSet GroundTruthPower::natives_read() {
  static const pmc::NativeSet kRead = [] {
    const GroundTruthPower truth = haswell_ep();
    SocketActivity activity;
    activity.duration_s = 1.0;
    activity.frequency_ghz = 2.6;
    activity.voltage = 1.0;
    activity.active_cores = activity.total_cores;
    return pmc::probe_natives_read([&](const pmc::ActivityCounts& counts) {
      activity.counts = counts;
      return truth.socket_power(activity).package_total();
    });
  }();
  return kRead;
}

PowerBreakdown GroundTruthPower::socket_power(const SocketActivity& a) const {
  PWX_REQUIRE(a.duration_s > 0.0, "socket activity needs a positive duration");
  PWX_REQUIRE(a.voltage > 0.0, "socket activity needs a positive voltage");
  const EnergyTable& e = energies_;
  const double nj = 1e-9;
  const double vscale = (a.voltage / statics_.reference_voltage) *
                        (a.voltage / statics_.reference_voltage);
  const pmc::ActivityCounts& c = a.counts;

  // Visible core-dynamic energy: per-event accounting.
  double core_joules = 0.0;
  core_joules += e.per_cycle_nj * nj * c.cycles;
  core_joules += e.per_load_nj * nj * c.load_ins;
  core_joules += e.per_store_nj * nj * c.store_ins;
  const double l2_accesses = c.l2_data_read + c.l2_data_write + c.l2_inst_read;
  core_joules += e.per_l2_access_nj * nj * l2_accesses;
  core_joules += e.per_branch_misp_nj * nj * c.branch_misp;
  core_joules += e.per_tlb_walk_nj * nj * (c.tlb_data_miss + c.tlb_inst_miss);

  // Hidden core-dynamic energy. Execution is billed per *uop*, not per
  // retired instruction — the counters only see instructions, so the
  // workload-dependent uop expansion is invisible to the model. The AVX-unit
  // energy is likewise unobservable (Haswell has no usable FP/SIMD presets).
  double hidden_joules = 0.0;
  hidden_joules += e.per_avx256_nj * nj * a.avx256_instructions;
  hidden_joules += e.per_uop_nj * nj * a.uops;

  // Uncore dynamic: L3/ring + IMC traffic.
  double uncore_joules = 0.0;
  const double l3_accesses = c.l3_data_read + c.l3_data_write + c.l3_inst_read;
  uncore_joules += e.per_l3_access_nj * nj * l3_accesses;
  uncore_joules += e.per_dram_access_nj * nj * c.l3_total_miss;
  uncore_joules += e.per_prefetch_nj * nj * c.prefetch_miss;
  uncore_joules += e.per_snoop_nj * nj * c.snoop_requests;
  uncore_joules += e.per_dram_byte_nj * nj * a.dram_bytes;

  PowerBreakdown out;
  out.core_dynamic = core_joules * vscale * a.dynamic_scale / a.duration_s;
  out.hidden_dynamic = hidden_joules * vscale * a.dynamic_scale / a.duration_s;
  out.uncore_dynamic = uncore_joules * vscale / a.duration_s;
  out.uncore_static = statics_.uncore_static_watts *
                      (0.8 + 0.2 * a.frequency_ghz / 2.6);
  out.board = statics_.board_watts + a.baseline_offset_watts;

  // Leakage/temperature fixed point: leakage feeds temperature feeds leakage.
  const double v_leak = a.voltage / statics_.reference_voltage;
  const double n_active = static_cast<double>(a.active_cores);
  const double n_idle =
      static_cast<double>(a.total_cores) - static_cast<double>(a.active_cores);
  double temperature = thermal_.ambient_celsius + 20.0;  // warm start
  double leakage = 0.0;
  for (int iteration = 0; iteration < 8; ++iteration) {
    const double temp_factor =
        std::exp((temperature - statics_.leak_temp_ref_c) / statics_.leak_temp_scale_c);
    const double per_core = statics_.core_leak_watts * v_leak * temp_factor;
    leakage = per_core * (n_active + statics_.gated_leak_fraction * n_idle);
    const double package = out.core_dynamic + out.hidden_dynamic +
                           out.uncore_dynamic + out.uncore_static + leakage;
    temperature = thermal_.steady_state_temperature(package);
  }
  out.core_leakage = leakage;
  out.die_temperature_c = temperature;
  return out;
}

double GroundTruthPower::input_watts(const PowerBreakdown& b) const {
  const double package = b.package_total();
  return package / vr_efficiency(package) + b.board;
}

double GroundTruthPower::socket_input_watts(const SocketActivity& activity) const {
  return input_watts(socket_power(activity));
}

}  // namespace pwx::power
