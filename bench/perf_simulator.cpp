// Performance of the execution simulator and the acquisition campaign — the
// substrate cost that bounds every reproduction experiment.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "acquire/campaign.hpp"
#include "pmc/scheduler.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace pwx;

/// The presets of the standard schedule's first group: what one campaign run
/// records.
const std::vector<pmc::Preset>& first_group() {
  static const std::vector<pmc::Preset> events =
      pmc::schedule_events(pmc::haswell_ep_available_events()).front().events;
  return events;
}

// Every native (the run that pwx-record and the replay tools make).
void BM_SingleRun(benchmark::State& state) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  const auto workload = workloads::find_workload("md");
  sim::RunConfig rc;
  rc.threads = static_cast<std::size_t>(state.range(0));
  rc.interval_s = 0.25;
  rc.duration_scale = 0.4;
  for (auto _ : state) {
    const auto run = engine.run(*workload, rc);
    benchmark::DoNotOptimize(run.intervals.size());
  }
  state.counters["intervals"] = benchmark::Counter(
      static_cast<double>(engine.run(*workload, rc).intervals.size()));
}
BENCHMARK(BM_SingleRun)->Arg(1)->Arg(24)->Unit(benchmark::kMillisecond);

// The same run recording one event group (a campaign run).
void BM_SingleRunOneGroup(benchmark::State& state) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  const auto workload = workloads::find_workload("md");
  sim::RunConfig rc;
  rc.threads = static_cast<std::size_t>(state.range(0));
  rc.interval_s = 0.25;
  rc.duration_scale = 0.4;
  for (auto _ : state) {
    const auto run = engine.run(*workload, rc, first_group());
    benchmark::DoNotOptimize(run.intervals.size());
  }
}
BENCHMARK(BM_SingleRunOneGroup)->Arg(1)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_CoreActivityGeneration(benchmark::State& state) {
  const auto workload = workloads::find_workload("bwaves");
  Rng rng(7);
  for (auto _ : state) {
    const auto counts = sim::generate_core_activity(workload->phases[0], 2.4, 2.5,
                                                    0.25, 1.0, 24, rng);
    benchmark::DoNotOptimize(counts.instructions);
  }
}
BENCHMARK(BM_CoreActivityGeneration);

void BM_CoreActivityGenerationOneGroup(benchmark::State& state) {
  const auto workload = workloads::find_workload("bwaves");
  const pmc::NativeSet read = sim::natives_read(first_group());
  Rng rng(7);
  for (auto _ : state) {
    const auto counts = sim::generate_core_activity(workload->phases[0], 2.4, 2.5,
                                                    0.25, 1.0, 24, read, rng);
    benchmark::DoNotOptimize(counts.instructions);
  }
}
BENCHMARK(BM_CoreActivityGenerationOneGroup);

// Unbatched jitter: 29 lognormal() calls with one shape, each paying its own
// half of a Box–Muller pair and an exp.
void BM_LognormalJitter(benchmark::State& state) {
  const auto workload = workloads::find_workload("bwaves");
  const Rng::LognormalShape shape =
      Rng::lognormal_shape(std::max(0.008, 0.3 * workload->phases[0].variability_cv));
  const double mean = 1e6 * workload->phases[0].base_cpi;
  Rng rng(7);
  for (auto _ : state) {
    double sum = 0.0;
    for (int i = 0; i < 29; ++i) {
      sum += rng.lognormal(mean, shape);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(29 * state.iterations());
}
BENCHMARK(BM_LognormalJitter);

// One Box–Muller pair: a log, a sqrt and a sincos(2πu).
void BM_NormalPair(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_NormalPair);

void BM_GroundTruthEvaluation(benchmark::State& state) {
  const power::GroundTruthPower truth = power::GroundTruthPower::haswell_ep();
  power::SocketActivity activity;
  activity.duration_s = 0.25;
  activity.frequency_ghz = 2.4;
  activity.voltage = 1.0;
  activity.active_cores = 12;
  activity.counts.cycles = 12 * 2.4e9 * 0.25;
  activity.counts.instructions = 2 * activity.counts.cycles;
  activity.uops = 2.2 * activity.counts.cycles;
  for (auto _ : state) {
    benchmark::DoNotOptimize(truth.socket_input_watts(activity));
  }
}
BENCHMARK(BM_GroundTruthEvaluation);

void BM_SmallCampaign(benchmark::State& state) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig cfg = acquire::standard_campaign_config({2.4});
  cfg.workloads = {*workloads::find_workload("compute"),
                   *workloads::find_workload("swim")};
  cfg.scalable_thread_counts = {8, 24};
  for (auto _ : state) {
    const auto dataset = acquire::run_campaign(engine, cfg);
    benchmark::DoNotOptimize(dataset.size());
  }
}
BENCHMARK(BM_SmallCampaign)->Unit(benchmark::kMillisecond);

}  // namespace
