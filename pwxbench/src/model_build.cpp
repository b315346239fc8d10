// model_build: the paper's whole pipeline on the standard campaign, from the
// first engine run to a validated Equation-1 model.
//
// One operation = the selection campaign at 2.4 GHz and the training
// campaign at the five DVFS states (10,464 engine runs, 112 + 560 rows),
// Algorithm 1 with the VIF veto, the HC3 fit, 10-fold CV and the four
// scenarios. Almost all of the time is simulated acquisition, so this is the
// workload on which the sim, trace and acquire layers show.
#include <cmath>

#include "acquire/campaign.hpp"
#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "core/validate.hpp"
#include "cpu/dvfs.hpp"
#include "harness.hpp"
#include "obs/span.hpp"
#include "pmc/scheduler.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "workloads/registry.hpp"

namespace pwx::bench {

namespace {

constexpr std::uint64_t kCvSeed = 0xF01D;      // the reproduction benches' CV seed
constexpr std::uint64_t kScenario1Seed = 1;    // the fixed four-workload draw
constexpr double kCvMapeCeilingPct = 25.0;     // sanity ceiling, not a target
constexpr std::size_t kSelectionRows = 112;
constexpr std::size_t kTrainingRows = 560;

struct Build {
  StandardModel standard;
  core::CvSummary cv;
  std::vector<core::ScenarioResult> scenarios;
};

acquire::Dataset standard_campaign(const std::vector<double>& ghz, std::uint64_t seed) {
  return acquire::run_campaign(sim::Engine::haswell_ep(),
                               acquire::standard_campaign_config(ghz, seed));
}

Build build_model(std::uint64_t seed) {
  Build build;
  build.standard = train_standard_model(seed);
  const acquire::Dataset& training = build.standard.training;
  const core::FeatureSpec& spec = build.standard.model.spec();
  {
    const obs::Span scope("bench/validate.cv");
    build.cv = core::k_fold_cross_validation(training, spec, 10, kCvSeed);
  }
  const obs::Span scope("bench/validate.scenarios");
  build.scenarios.push_back(
      core::scenario_random_workloads(training, spec, 4, kScenario1Seed));
  build.scenarios.push_back(core::scenario_synthetic_to_spec(training, spec));
  build.scenarios.push_back(core::scenario_kfold_all(training, spec, 10, kCvSeed));
  build.scenarios.push_back(core::scenario_kfold_synthetic(training, spec, 10, kCvSeed));
  return build;
}

/// Single-threaded replay of `configs` seeded training configurations, one
/// engine run per event group, timing the engine, the trace build and the
/// phase profiles apart. Returns the number of simulated intervals.
std::size_t replay_configurations(std::uint64_t seed, std::size_t configs) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  const acquire::CampaignConfig config =
      acquire::standard_campaign_config(cpu::paper_frequencies_ghz(), seed);
  const std::vector<pmc::EventGroup> groups =
      pmc::schedule_events(config.events, config.budget);
  Rng rng(seed);
  std::size_t intervals = 0;
  for (std::size_t c = 0; c < configs; ++c) {
    const workloads::Workload& workload =
        config.workloads[rng.uniform_index(config.workloads.size())];
    sim::RunConfig rc;
    rc.frequency_ghz =
        config.frequencies_ghz[rng.uniform_index(config.frequencies_ghz.size())];
    rc.threads = workload.thread_scalable
                     ? config.scalable_thread_counts[rng.uniform_index(
                           config.scalable_thread_counts.size())]
                     : config.fixed_thread_count;
    rc.interval_s = config.interval_s;
    rc.duration_scale = config.duration_scale;
    for (const pmc::EventGroup& group : groups) {
      rc.seed = rng();
      sim::RunResult run;
      {
        const obs::Span scope("bench/sim.run");
        run = engine.run(workload, rc);
      }
      intervals += run.intervals.size();
      trace::Trace trace;
      {
        const obs::Span scope("bench/trace.build");
        trace = trace::build_standard_trace(run, group.events);
      }
      const obs::Span scope("bench/trace.profile");
      (void)trace::build_phase_profiles(trace);
    }
  }
  return intervals;
}

/// Engine runs a fault-free standard campaign makes at these frequencies.
std::size_t expected_runs(const std::vector<double>& ghz) {
  const acquire::CampaignConfig config = acquire::standard_campaign_config(ghz);
  std::size_t units = 0;
  for (const workloads::Workload& workload : config.workloads) {
    units += (workload.thread_scalable ? config.scalable_thread_counts.size() : 1) *
             ghz.size();
  }
  return units * pmc::runs_required(config.events, config.budget);
}

std::size_t engine_runs(const Build& build) {
  return build.standard.selection.quality().runs_attempted +
         build.standard.training.quality().runs_attempted;
}

}  // namespace

std::string dataset_digest(const acquire::Dataset& dataset) {
  Digest d;
  for (const acquire::DataRow& row : dataset.rows()) {
    d.str(row.workload);
    d.str(row.phase);
    d.u64(static_cast<std::uint64_t>(row.suite));
    d.f64(row.frequency_ghz);
    d.u64(row.threads);
    d.f64(row.avg_power_watts);
    d.f64(row.avg_voltage);
    d.f64(row.elapsed_s);
    d.u64(row.runs_merged);
    for (const auto& [preset, rate] : row.counter_rates) {
      d.u64(static_cast<std::uint64_t>(preset));
      d.f64(rate);
    }
  }
  return d.hex();
}

std::string model_digest(const core::PowerModel& model) {
  Digest d;
  for (const pmc::Preset preset : model.spec().events) {
    d.u64(static_cast<std::uint64_t>(preset));
  }
  for (const double beta : model.fit().beta) {
    d.f64(beta);
  }
  for (const double se : model.fit().standard_error) {
    d.f64(se);
  }
  return d.hex();
}

StandardModel train_standard_model(std::uint64_t seed) {
  StandardModel s;
  {
    const obs::Span scope("bench/acquire.selection_campaign");
    s.selection = standard_campaign({cpu::selection_frequency_ghz()}, seed);
  }
  {
    const obs::Span scope("bench/acquire.training_campaign");
    s.training = standard_campaign(cpu::paper_frequencies_ghz(), seed);
  }
  {
    const obs::Span scope("bench/selection.select");
    core::SelectionOptions options;
    options.count = 6;
    options.max_mean_vif = 8.0;
    s.selected = core::select_events(s.selection, pmc::haswell_ep_available_events(),
                                     options);
  }
  core::FeatureSpec spec;
  spec.events = s.selected.selected();
  const obs::Span scope("bench/fit.train");
  s.model = core::train_model(s.training, spec, regress::CovarianceType::HC3);
  return s;
}

void run_model_build(const Args& args, Result& result) {
  // Set-up is one untimed warm-up pass (the first selection campaign of a
  // process can run 3x slower than later ones), repeated for a stable median.
  const OpTimes setup = timed_setup(args.smoke ? 1 : 3, [&] {
    (void)standard_campaign({cpu::selection_frequency_ghz()}, args.seed);
  });

  const std::size_t runs_per_build = expected_runs({cpu::selection_frequency_ghz()}) +
                                     expected_runs(cpu::paper_frequencies_ghz());
  std::string first_data_digest;
  std::string first_model_digest;
  // Output checks, run on every build as it completes (untimed).
  const auto check_build = [&](Build& b) {
    StandardModel& s = b.standard;
    if (args.perturb == "rows") {
      s.training.rows().pop_back();
    }
    result.attempted += s.selection.quality().runs_attempted +
                        s.training.quality().runs_attempted;
    result.failed += s.selection.quality().runs_rejected + s.training.quality().runs_rejected;
    result.check(s.selection.size() == kSelectionRows,
                 "selection dataset has 112 rows (got " + std::to_string(s.selection.size()) +
                     ")");
    result.check(s.training.size() == kTrainingRows,
                 "training dataset has 560 rows (got " + std::to_string(s.training.size()) +
                     ")");
    result.check(s.selection.quality().clean() && s.training.quality().clean(),
                 "campaign DataQuality is clean");
    result.check(engine_runs(b) == runs_per_build,
                 "campaigns made " + std::to_string(runs_per_build) + " engine runs");
    result.check(s.selected.steps.size() == 6, "six events selected");
    result.check(!s.selected.steps.empty() && s.selected.steps.back().mean_vif <= 8.0,
                 "mean VIF of the selected events <= 8");
    result.check(std::isfinite(b.cv.mean.mape) && b.cv.mean.mape < kCvMapeCeilingPct,
                 "10-fold CV MAPE finite and under the sanity ceiling");
    for (const core::ScenarioResult& scenario : b.scenarios) {
      result.check(std::isfinite(scenario.mape), scenario.name + " MAPE is finite");
    }
    // Same seed, same inputs: every build of a run is bit-identical.
    const std::string data_digest = dataset_digest(s.selection) + dataset_digest(s.training);
    const std::string fit_digest = model_digest(s.model);
    if (first_data_digest.empty()) {
      first_data_digest = data_digest;
      first_model_digest = fit_digest;
    }
    result.check(data_digest == first_data_digest,
                 "every build of the run acquires the same datasets");
    result.check(fit_digest == first_model_digest, "every build of the run fits the same model");
  };

  OpTimes untraced;
  OpTimes traced_ops;
  Build last;
  SpanLog log;
  bool spans_complete = true;
  std::size_t replay_intervals = 0;
  const double loop_start = now_s();
  for (std::size_t n = 0;
       now_s() - loop_start < args.seconds || (args.trace && traced_ops.size() == 0); ++n) {
    // Traced runs alternate traced and untraced builds, so the tracing
    // overhead is measured against untraced builds of the same process.
    const bool traced = args.trace && n % 2 == 1;
    if (traced) {
      log.open(1 << 13);
    }
    last = (traced ? traced_ops : untraced).time([&] { return build_model(args.seed); });
    if (traced) {
      replay_intervals += replay_configurations(args.seed + n, 8);
      spans_complete = log.close() && spans_complete;
    }
    check_build(last);
  }
  result.context("dataset_digest", first_data_digest);
  result.context("model_digest", first_model_digest);

  // ---- End-to-end metrics (untraced builds only). Few builds fit in a
  // run, so the tail is the slowest one.
  set_op_metrics(result, untraced, 100.0, setup);
  result.set("model_mape_pct", last.cv.mean.mape);

  if (!args.trace) {
    return;
  }
  // ---- Per-layer metrics from the traced builds.
  result.check(spans_complete, "no spans dropped in traced builds");
  result.set("sim.run_ms", log.median_ms("sim.run"));
  result.set("sim.intervals_per_s",
             static_cast<double>(replay_intervals) / log.total_s("sim.run"));
  result.set("sim.runs", static_cast<double>(engine_runs(last)));
  result.set("trace.build_ms", log.median_ms("trace.build"));
  result.set("trace.profile_ms", log.median_ms("trace.profile"));
  result.set("acquire.selection_campaign_s",
             log.median_ms("acquire.selection_campaign") / 1e3);
  result.set("acquire.training_campaign_s",
             log.median_ms("acquire.training_campaign") / 1e3);
  result.set("acquire.rows",
             static_cast<double>(last.standard.selection.size() + last.standard.training.size()));
  result.set("acquire.runs_rejected",
             static_cast<double>(last.standard.selection.quality().runs_rejected +
                                 last.standard.training.quality().runs_rejected));
  result.set("acquire.configs_quarantined",
             static_cast<double>(last.standard.selection.quality().configurations_quarantined +
                                 last.standard.training.quality().configurations_quarantined));
  result.set("selection.select_ms", log.median_ms("selection.select"));
  result.set("fit.train_ms", log.median_ms("fit.train"));
  result.set("validate.cv_ms", log.median_ms("validate.cv"));
  result.set("validate.scenarios_ms", log.median_ms("validate.scenarios"));
  result.set("obs.tracing_overhead_pct", overhead_pct(untraced.wall_s(), traced_ops.wall_s()));
}

}  // namespace pwx::bench
