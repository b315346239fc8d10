#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace pwx::sim {

namespace {

/// Background OS activity on a core with no workload thread: timer ticks and
/// kernel housekeeping. Roughly 0.3 % duty cycle of idle-like work.
workloads::PhaseCharacter os_background() {
  workloads::PhaseCharacter p;
  p.name = "os";
  p.base_cpi = 1.5;
  p.unhalted_frac = 0.003;
  p.frac_load = 0.22;
  p.frac_store = 0.08;
  p.frac_branch_cn = 0.18;
  p.branch_misp_rate = 0.02;
  p.l1d_ld_mpki = 4.0;
  p.l1d_st_mpki = 1.0;
  p.l1i_mpki = 3.0;
  p.l2_ld_mpki = 1.5;
  p.l2_st_mpki = 0.4;
  p.l2i_mpki = 0.8;
  p.l3_ld_mpki = 0.5;
  p.l3_wb_mpki = 0.2;
  p.tlb_d_mpki = 0.4;
  p.tlb_i_mpki = 0.3;
  p.prefetch_mpki = 0.8;
  p.full_issue_cpki = 20.0;
  p.full_compl_cpki = 15.0;
  p.stall_issue_base_cpki = 500.0;
  p.stall_compl_base_cpki = 600.0;
  p.res_stall_base_cpki = 300.0;
  p.uops_per_inst = 1.15;
  p.variability_cv = 0.05;
  return p;
}

/// Hidden activity produced alongside the counters.
struct HiddenActivity {
  double avx256_instructions = 0;
  double uops = 0;
  double dram_bytes = 0;
};

HiddenActivity hidden_for(const workloads::PhaseCharacter& c, double instructions) {
  HiddenActivity h;
  h.avx256_instructions = c.avx256_frac * instructions;
  // The generator bills per "energy-weighted" uop: the workload's switching
  // activity scales what each uop costs, so the weight is applied here.
  h.uops = c.uops_per_inst * c.exec_energy_scale * instructions;
  h.dram_bytes = c.dram_bytes_per_inst * instructions;
  return h;
}

/// The per-counter jitter draws of one core-interval, in stream order.
enum Draw : std::size_t {
  // Means scale the instruction count.
  kLoadIns, kStoreIns, kBranchCn, kBranchUcn,
  // Mean scales the jittered branch_cn, so this draw starts a second batch.
  kBranchMisp,
  // Means scale kilo-instructions.
  kL1dLoadMiss, kL1dStoreMiss, kL1iMiss, kPrefetchMiss, kL2InstRead, kL2LoadMiss,
  kL2StoreMiss, kL2InstMiss, kL3LoadMiss, kL3TotalMiss, kTlbDataMiss, kTlbInstMiss,
  kSnoopRequests, kSharedAccess, kCleanExclusive, kInvalidations, kFullIssue,
  kFullCompl, kStallIssue, kStallCompl, kResourceStall, kMemWriteStall,
  kDrawCount
};

/// The native each draw feeds.
constexpr std::array<pmc::NativeSet, kDrawCount> kDrawNative = {
    PWX_NATIVE(load_ins),          PWX_NATIVE(store_ins),
    PWX_NATIVE(branch_cn),         PWX_NATIVE(branch_ucn),
    PWX_NATIVE(branch_misp),       PWX_NATIVE(l1d_load_miss),
    PWX_NATIVE(l1d_store_miss),    PWX_NATIVE(l1i_miss),
    PWX_NATIVE(prefetch_miss),     PWX_NATIVE(l2_inst_read),
    PWX_NATIVE(l2_load_miss),      PWX_NATIVE(l2_store_miss),
    PWX_NATIVE(l2_inst_miss),      PWX_NATIVE(l3_load_miss),
    PWX_NATIVE(l3_total_miss),     PWX_NATIVE(tlb_data_miss),
    PWX_NATIVE(tlb_inst_miss),     PWX_NATIVE(snoop_requests),
    PWX_NATIVE(shared_access),     PWX_NATIVE(clean_exclusive),
    PWX_NATIVE(invalidations),     PWX_NATIVE(full_issue_cycles),
    PWX_NATIVE(full_compl_cycles), PWX_NATIVE(stall_issue_cycles),
    PWX_NATIVE(stall_compl_cycles), PWX_NATIVE(resource_stall_cycles),
    PWX_NATIVE(mem_write_stall_cycles)};

/// A native that sample_core computes from other natives, and those natives.
struct Derivation {
  pmc::NativeSet native;
  pmc::NativeSet sources;
};

constexpr std::array<Derivation, 6> kDerivations = {{
    {PWX_NATIVE(l2_data_read), PWX_NATIVE(l1d_load_miss) | PWX_NATIVE(prefetch_miss)},
    {PWX_NATIVE(l2_data_write), PWX_NATIVE(l1d_store_miss)},
    {PWX_NATIVE(l3_data_read), PWX_NATIVE(l2_load_miss) | PWX_NATIVE(prefetch_miss)},
    {PWX_NATIVE(l3_data_write), PWX_NATIVE(l2_store_miss)},
    {PWX_NATIVE(l3_inst_read), PWX_NATIVE(l2_inst_miss)},
    {PWX_NATIVE(l3_total_miss), PWX_NATIVE(prefetch_miss)},
}};

/// The natives sample_core computes for `read`: those, the natives they are
/// computed from, and the three that every interval needs. Cycles and
/// instructions scale every mean (and the hidden activity reads
/// instructions); branch_cn scales branch_misp's mean, and whether that draw
/// takes a normal from the stream depends on its sign, so branch_cn must be
/// known to keep every later draw in place.
pmc::NativeSet computed_natives(pmc::NativeSet read) {
  pmc::NativeSet computed =
      read | PWX_NATIVE(cycles) | PWX_NATIVE(instructions) | PWX_NATIVE(branch_cn);
  for (const Derivation& d : kDerivations) {
    if ((read & d.native) != 0) {
      computed |= d.sources;
    }
  }
  return computed;
}

/// A run's read set, with the draws it needs.
struct ReadSet {
  explicit ReadSet(pmc::NativeSet read) : natives(computed_natives(read)) {
    for (std::size_t k = 0; k < kDrawCount; ++k) {
      if ((kDrawNative[k] & natives) != 0) {
        draws |= std::uint32_t{1} << k;
      }
    }
  }
  bool has(pmc::NativeSet native) const { return (natives & native) != 0; }

  pmc::NativeSet natives = 0;
  std::uint32_t draws = 0;  ///< bit k: draw k is read
};

/// What a core-interval of one phase needs that stays fixed for a run: both
/// log-normal shapes, and the factor of every jitter mean. Each factor is the
/// leading part of the mean's product as the formula groups it, so the means
/// keep their bits.
struct PhaseSampler {
  PhaseSampler(const workloads::PhaseCharacter& c, double frequency_ghz,
               double reference_ghz, double interval_s, std::size_t coactive_cores)
      // One correlated intensity draw per interval models run/interval level
      // variability; events share it so their ratios stay workload-typical.
      // The floors reflect that even the steadiest kernel shows ~1.5 %
      // run-to-run variation on real hardware (interrupts, placement, DVFS
      // transients). Independent per-counter jitter sits on top (sampling
      // alignment, OS noise). The floors also keep both shapes off σ == 0,
      // so every jitter with a positive mean consumes one normal.
      : intensity(Rng::lognormal_shape(std::max(0.012, c.variability_cv))),
        jitter(Rng::lognormal_shape(std::max(0.008, 0.3 * c.variability_cv))),
        cycles(interval_s * (frequency_ghz * 1e9) * c.unhalted_frac),
        ref_cycles(interval_s * reference_ghz * 1e9 * c.unhalted_frac),
        cpi(effective_cpi(c, frequency_ghz)),
        base_cpi(c.base_cpi),
        branch_taken_rate(c.branch_taken_rate) {
    // Shared-cache contention: with more co-active cores, each core's share
    // of L3 and of the page-walk caches shrinks, so per-core miss rates rise
    // and the prefetcher loses accuracy. The growth is linear in the
    // co-runner share, scaled by the workload's capacity sensitivity.
    const double corun = coactive_cores > 1
                             ? static_cast<double>(coactive_cores - 1) / 23.0
                             : 0.0;
    const double contention = 1.0 + c.cache_contention * corun;
    // Snoop traffic grows with the number of co-active caches; the per-core
    // shared/clean/invalidation request rates are workload properties (how
    // the application shares data), not functions of the core count.
    const double peers =
        coactive_cores > 0 ? static_cast<double>(coactive_cores - 1) : 0.0;
    factor = {c.frac_load,
              c.frac_store,
              c.frac_branch_cn,
              c.frac_branch_ucn,
              c.branch_misp_rate,
              c.l1d_ld_mpki,
              c.l1d_st_mpki,
              c.l1i_mpki,
              c.prefetch_mpki * (1.0 + 0.5 * c.cache_contention * corun),
              // L2 instruction reads: demand L1I misses plus speculative
              // refetch after mispredicted branches and page-walk fetches —
              // workload-dependent terms that keep the counter correlated
              // with, but not proportional to, L1_ICM.
              c.l1i_mpki + 2.0 * c.tlb_i_mpki +
                  12.0 * c.branch_misp_rate * c.frac_branch_cn,
              c.l2_ld_mpki,
              c.l2_st_mpki,
              c.l2i_mpki,
              c.l3_ld_mpki * contention,
              (c.l3_ld_mpki + c.l3_wb_mpki) * contention,
              c.tlb_d_mpki * (1.0 + 0.6 * c.cache_contention * corun),
              c.tlb_i_mpki,
              c.snoop_pki_per_core * peers,
              c.shared_pki,
              c.clean_pki,
              c.inv_pki,
              c.full_issue_cpki,
              c.full_compl_cpki,
              c.stall_issue_base_cpki,
              c.stall_compl_base_cpki,
              c.res_stall_base_cpki,
              c.mem_wstall_cpki};
  }

  Rng::LognormalShape intensity;
  Rng::LognormalShape jitter;
  double cycles;      ///< unhalted cycles at intensity 1
  double ref_cycles;  ///< unhalted reference cycles at intensity 1
  double cpi;
  double base_cpi;
  double branch_taken_rate;
  std::array<double, kDrawCount> factor{};
};

/// Jitter draws [first, last) on `means`, as one lognormal() call per
/// positive mean would make them: a mean <= 0 gives 0 and consumes nothing,
/// any other mean consumes one normal. A draw outside `read` comes out NaN,
/// and costs only its place in the stream.
void draw_jitter(Rng::LognormalShape shape, const std::array<double, kDrawCount>& means,
                 std::size_t first, std::size_t last, std::uint32_t read,
                 std::array<double, kDrawCount>& out, Rng& rng) {
  std::array<double, kDrawCount> z;
  std::array<std::size_t, kDrawCount> draw_of;
  std::size_t n = 0;
  std::uint64_t wanted = 0;
  for (std::size_t k = first; k < last; ++k) {
    const std::uint64_t is_read = (read >> k) & 1;
    out[k] = is_read != 0 ? 0.0 : std::numeric_limits<double>::quiet_NaN();
    if (means[k] <= 0.0) {
      continue;
    }
    PWX_REQUIRE(means[k] > 0.0, "lognormal needs mean > 0, got mean=", means[k]);
    wanted |= is_read << n;
    draw_of[n++] = k;
  }
  rng.normals(std::span<double>(z.data(), n), wanted);
  for (std::size_t i = 0; i < n; ++i) {
    if (((wanted >> i) & 1) != 0) {
      const std::size_t k = draw_of[i];
      out[k] = means[k] * std::exp(shape.sigma * z[i] - shape.half_sigma2);
    }
  }
}

/// One core-interval. Natives outside `read` come out NaN.
pmc::ActivityCounts sample_core(const PhaseSampler& p, double slowdown,
                                const ReadSet& read, Rng& rng) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  pmc::ActivityCounts a;
  const double intensity = rng.lognormal(1.0, p.intensity);
  a.cycles = p.cycles * intensity;
  a.ref_cycles = read.has(PWX_NATIVE(ref_cycles)) ? p.ref_cycles * intensity : kNaN;
  const double instructions = a.cycles / p.cpi * slowdown;
  a.instructions = instructions;

  std::array<double, kDrawCount> means;
  std::array<double, kDrawCount> x;
  for (std::size_t k = kLoadIns; k < kBranchMisp; ++k) {
    means[k] = p.factor[k] * instructions;
  }
  draw_jitter(p.jitter, means, kLoadIns, kBranchMisp, read.draws, x, rng);
  a.load_ins = x[kLoadIns];
  a.store_ins = x[kStoreIns];
  a.branch_cn = x[kBranchCn];
  a.branch_ucn = x[kBranchUcn];
  a.branch_taken =
      read.has(PWX_NATIVE(branch_taken)) ? p.branch_taken_rate * a.branch_cn : kNaN;

  const double ki = instructions / 1000.0;
  means[kBranchMisp] = p.factor[kBranchMisp] * a.branch_cn;
  for (std::size_t k = kBranchMisp + 1; k < kDrawCount; ++k) {
    means[k] = p.factor[k] * ki;
  }
  draw_jitter(p.jitter, means, kBranchMisp, kDrawCount, read.draws, x, rng);
  a.branch_misp = x[kBranchMisp];
  a.l1d_load_miss = x[kL1dLoadMiss];
  a.l1d_store_miss = x[kL1dStoreMiss];
  a.l1i_miss = x[kL1iMiss];
  a.prefetch_miss = x[kPrefetchMiss];

  // Access chains: a level's accesses are the level above's misses (demand)
  // plus the prefetcher share that targets it.
  a.l2_data_read = a.l1d_load_miss + 0.6 * a.prefetch_miss;
  a.l2_data_write = a.l1d_store_miss;
  a.l2_inst_read = x[kL2InstRead];
  a.l2_load_miss = x[kL2LoadMiss];
  a.l2_store_miss = x[kL2StoreMiss];
  a.l2_inst_miss = x[kL2InstMiss];
  a.l3_data_read = a.l2_load_miss + 0.4 * a.prefetch_miss;
  a.l3_data_write = a.l2_store_miss;
  a.l3_inst_read = a.l2_inst_miss;
  a.l3_load_miss = x[kL3LoadMiss];
  a.l3_total_miss = x[kL3TotalMiss] + 0.5 * a.prefetch_miss;

  a.tlb_data_miss = x[kTlbDataMiss];
  a.tlb_inst_miss = x[kTlbInstMiss];

  a.snoop_requests = x[kSnoopRequests];
  a.shared_access = x[kSharedAccess];
  a.clean_exclusive = x[kCleanExclusive];
  a.invalidations = x[kInvalidations];

  // Cycle histogram: core-bound shares are per kilo-instruction; memory and
  // bandwidth-cap stalls are whatever the cycle budget leaves over the
  // core-busy cycles. Each entry is capped at the cycle count with
  // std::min(entry, cycles), which returns a NaN entry as it is (and any
  // other value as std::min(cycles, entry) does), so an unread entry stays
  // NaN instead of turning into a plausible cycle count.
  const double core_busy = instructions * p.base_cpi;
  const double mem_stall = std::max(0.0, a.cycles - core_busy);
  a.full_issue_cycles = std::min(x[kFullIssue], a.cycles);
  a.full_compl_cycles = std::min(x[kFullCompl], a.cycles);
  // Issue keeps going during part of a memory stall (the OoO window drains),
  // completion stops for all of it, and resource stalls fall in between —
  // the three counters are correlated but carry distinct information.
  a.stall_issue_cycles = std::min(x[kStallIssue] + 0.55 * mem_stall, a.cycles);
  a.stall_compl_cycles = std::min(x[kStallCompl] + mem_stall, a.cycles);
  a.resource_stall_cycles = std::min(x[kResourceStall] + 0.8 * mem_stall, a.cycles);
  a.mem_write_stall_cycles = std::min(x[kMemWriteStall], a.cycles);
  return a;
}

}  // namespace

double effective_cpi(const workloads::PhaseCharacter& c, double frequency_ghz) {
  return c.base_cpi + c.mem_ns_per_inst * frequency_ghz;
}

pmc::ActivityCounts generate_core_activity(const workloads::PhaseCharacter& c,
                                           double frequency_ghz, double reference_ghz,
                                           double interval_s, double slowdown,
                                           std::size_t coactive_cores, Rng& rng) {
  return generate_core_activity(c, frequency_ghz, reference_ghz, interval_s, slowdown,
                                coactive_cores, pmc::kAllNatives, rng);
}

pmc::ActivityCounts generate_core_activity(const workloads::PhaseCharacter& c,
                                           double frequency_ghz, double reference_ghz,
                                           double interval_s, double slowdown,
                                           std::size_t coactive_cores,
                                           pmc::NativeSet read, Rng& rng) {
  PWX_REQUIRE(slowdown > 0.0 && slowdown <= 1.0, "slowdown must be in (0,1], got ",
              slowdown);
  return sample_core(
      PhaseSampler(c, frequency_ghz, reference_ghz, interval_s, coactive_cores),
      slowdown, ReadSet(read), rng);
}

pmc::NativeSet natives_read(std::span<const pmc::Preset> recorded) {
  return computed_natives(power::GroundTruthPower::natives_read() |
                          pmc::natives_read_by(recorded));
}

Engine::Engine(cpu::MachineSpec spec, cpu::DvfsTable dvfs,
               power::GroundTruthPower truth, power::SensorSpec sensor_spec,
               std::uint64_t machine_seed)
    : spec_(std::move(spec)), dvfs_(std::move(dvfs)), truth_(std::move(truth)) {
  Rng seeder(machine_seed);
  for (std::size_t s = 0; s < spec_.sockets; ++s) {
    socket_sensors_.emplace_back(sensor_spec, seeder());
    // Per-socket VID offset of a few millivolts, as real parts show.
    const double vid_offset = seeder.uniform(-0.004, 0.004);
    voltage_sensors_.emplace_back(dvfs_, vid_offset);
  }
}

Engine Engine::haswell_ep(std::uint64_t machine_seed) {
  return Engine(cpu::haswell_ep_2690v3(), cpu::haswell_ep_dvfs(),
                power::GroundTruthPower::haswell_ep(), power::SensorSpec{},
                machine_seed);
}

RunResult Engine::run(const workloads::Workload& workload,
                      const RunConfig& config) const {
  return simulate(workload, config, pmc::kAllNatives);
}

RunResult Engine::run(const workloads::Workload& workload, const RunConfig& config,
                      std::span<const pmc::Preset> recorded) const {
  return simulate(workload, config, natives_read(recorded));
}

RunResult Engine::simulate(const workloads::Workload& workload, const RunConfig& config,
                           pmc::NativeSet read) const {
  PWX_REQUIRE(config.frequency_ghz >= dvfs_.min_frequency_ghz() &&
                  config.frequency_ghz <= dvfs_.max_frequency_ghz(),
              "frequency ", config.frequency_ghz, " GHz outside the DVFS range");
  PWX_REQUIRE(config.threads >= 1 && config.threads <= spec_.total_cores(),
              "thread count ", config.threads, " not supported by the machine");
  PWX_REQUIRE(config.interval_s > 0.0, "interval must be positive");
  workloads::validate(workload);

  RunResult result;
  result.workload = workload.name;
  result.config = config;

  Rng rng(config.seed);
  const std::vector<std::size_t> threads_per_socket =
      cpu::active_cores_per_socket(spec_, config.threads, config.pinning);
  const ReadSet read_set(read);
  const workloads::PhaseCharacter background = os_background();
  const PhaseSampler background_sampler(background, config.frequency_ghz,
                                        spec_.reference_clock_ghz, config.interval_s, 1);

  // Content-dependent dynamic-power factor: seeded by the configuration key
  // (not the run seed), so all multiplexed runs of one configuration share
  // it — as they share the input data whose values drive the switching.
  std::uint64_t config_key = 0xcbf29ce484222325ULL;
  for (const char ch : workload.name) {
    config_key = (config_key ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  config_key ^= static_cast<std::uint64_t>(config.frequency_ghz * 1e4);
  config_key = config_key * 0x100000001b3ULL + config.threads;
  Rng content_rng(config_key);
  const double dynamic_scale =
      config.content_variation_cv > 0.0
          ? content_rng.lognormal_mean_cv(1.0, config.content_variation_cv)
          : 1.0;
  const double baseline_offset =
      content_rng.normal(0.0, config.baseline_offset_sigma_watts);

  double total_weight = 0.0;
  for (const auto& phase : workload.phases) {
    total_weight += phase.weight;
  }
  const double duration = workload.nominal_duration_s * config.duration_scale;

  double now = 0.0;
  for (const auto& phase : workload.phases) {
    const double phase_duration = duration * phase.weight / total_weight;
    const auto interval_count = static_cast<std::size_t>(
        std::max(1.0, std::round(phase_duration / config.interval_s)));
    const PhaseSampler sampler(phase, config.frequency_ghz, spec_.reference_clock_ghz,
                               config.interval_s, config.threads);
    for (std::size_t iv = 0; iv < interval_count; ++iv) {
      IntervalRecord rec;
      rec.t_begin_s = now;
      rec.t_end_s = now + config.interval_s;
      rec.phase = phase.name;
      rec.active_threads = config.threads;
      now = rec.t_end_s;

      double measured_power = 0.0;
      double true_power = 0.0;
      double measured_voltage = 0.0;
      for (std::size_t socket = 0; socket < spec_.sockets; ++socket) {
        const std::size_t active = threads_per_socket[socket];
        const std::size_t idle = spec_.cores_per_socket - active;

        // Bandwidth ceiling: estimate the socket's unconstrained DRAM demand
        // and derive a common slowdown for its cores.
        double slowdown = 1.0;
        if (active > 0 && phase.dram_bytes_per_inst > 0.0) {
          const double cpi = effective_cpi(phase, config.frequency_ghz);
          const double inst_rate = config.frequency_ghz * 1e9 *
                                   phase.unhalted_frac / cpi *
                                   static_cast<double>(active);
          const double demand_gbs = inst_rate * phase.dram_bytes_per_inst / 1e9;
          const double cap = truth_.statics().socket_dram_bandwidth_gbs;
          if (demand_gbs > cap) {
            slowdown = cap / demand_gbs;
          }
        }

        power::SocketActivity socket_activity;
        socket_activity.total_cores = spec_.cores_per_socket;
        socket_activity.active_cores = active;
        socket_activity.duration_s = config.interval_s;
        socket_activity.frequency_ghz = config.frequency_ghz;

        HiddenActivity hidden;
        for (std::size_t core = 0; core < active; ++core) {
          const pmc::ActivityCounts counts =
              sample_core(sampler, slowdown, read_set, rng);
          const HiddenActivity h = hidden_for(phase, counts.instructions);
          hidden.avx256_instructions += h.avx256_instructions;
          hidden.uops += h.uops;
          hidden.dram_bytes += h.dram_bytes;
          socket_activity.counts += counts;
        }
        for (std::size_t core = 0; core < idle; ++core) {
          const pmc::ActivityCounts counts =
              sample_core(background_sampler, 1.0, read_set, rng);
          const HiddenActivity h = hidden_for(background, counts.instructions);
          hidden.uops += h.uops;
          socket_activity.counts += counts;
        }
        socket_activity.avx256_instructions = hidden.avx256_instructions;
        socket_activity.uops = hidden.uops;
        socket_activity.dram_bytes = hidden.dram_bytes;
        socket_activity.dynamic_scale = dynamic_scale;
        socket_activity.baseline_offset_watts = baseline_offset;

        // Voltage droop depends on power which depends on voltage; two
        // passes converge to well below the MSR quantization step.
        double voltage =
            voltage_sensors_[socket].true_voltage(config.frequency_ghz, 0.0);
        double socket_true = 0.0;
        for (int pass = 0; pass < 2; ++pass) {
          socket_activity.voltage = voltage;
          socket_true = truth_.socket_input_watts(socket_activity);
          voltage = voltage_sensors_[socket].true_voltage(config.frequency_ghz,
                                                          socket_true);
        }
        true_power += socket_true;
        measured_power +=
            socket_sensors_[socket].average(socket_true, config.interval_s, rng);
        if (socket == 0) {
          measured_voltage = cpu::VoltageSensor::quantize(voltage);
        }

        rec.counts += socket_activity.counts;
      }
      rec.measured_power_watts = measured_power;
      rec.true_power_watts = true_power;
      rec.measured_voltage = measured_voltage;
      result.intervals.push_back(std::move(rec));
    }
  }
  result.wall_time_s = now;
  return result;
}

}  // namespace pwx::sim
