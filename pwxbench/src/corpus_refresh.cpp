// corpus_refresh: the guarded retrain of a served model from recorded traces.
//
// Set-up writes a v4 trace corpus: every workload x {1.8, 2.4} GHz x
// {4, 12, 24} threads x every event group of the 54 presets (2,016 files,
// 144 merged rows). One operation = one serve::refresh_model against a
// LayoutEpoch: mmap ingest of the whole corpus, a 25% holdout, Algorithm 1,
// the fit, both gates and the publish. Reading the trace files is most of a
// refresh, so this is the workload where trace I/O and serve show and the
// simulator is idle.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "acquire/campaign.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "obs/span.hpp"
#include "pmc/scheduler.hpp"
#include "serve/refresh.hpp"
#include "sim/engine.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

namespace pwx::bench {

namespace {

namespace fs = std::filesystem;

struct CorpusShape {
  std::vector<workloads::Workload> workloads;
  std::vector<double> frequencies_ghz;
  std::vector<std::size_t> threads;
};

CorpusShape corpus_shape(bool smoke) {
  CorpusShape shape;
  shape.workloads = workloads::all_workloads();
  if (smoke) {
    shape.frequencies_ghz = {2.4};
    shape.threads = {24};
  } else {
    shape.frequencies_ghz = {1.8, 2.4};
    shape.threads = {4, 12, 24};
  }
  return shape;
}

/// Rows the merged corpus must have: one per (workload, phase, frequency,
/// threads) key.
std::size_t expected_rows(const CorpusShape& shape) {
  std::size_t rows = 0;
  for (const workloads::Workload& workload : shape.workloads) {
    std::vector<std::string> phases;
    for (const auto& phase : workload.phases) {
      if (std::find(phases.begin(), phases.end(), phase.name) == phases.end()) {
        phases.push_back(phase.name);
      }
    }
    rows += phases.size() * shape.frequencies_ghz.size() * shape.threads.size();
  }
  return rows;
}

/// Record the corpus into `dir`: one simulator run per (configuration, event
/// group), each written as its own trace file. Seeds are drawn serially, so
/// the files are a pure function of `seed` whatever the thread schedule.
std::vector<std::string> write_corpus(const CorpusShape& shape, const fs::path& dir,
                                      std::uint64_t seed) {
  struct Job {
    const workloads::Workload* workload;
    double frequency_ghz;
    std::size_t threads;
    const pmc::EventGroup* group;
    std::uint64_t seed;
    std::string path;
  };
  const std::vector<pmc::EventGroup> groups =
      pmc::schedule_events(pmc::haswell_ep_available_events());
  fs::create_directories(dir);
  Rng rng(seed);
  std::vector<Job> jobs;
  for (const workloads::Workload& workload : shape.workloads) {
    for (const double ghz : shape.frequencies_ghz) {
      for (const std::size_t threads : shape.threads) {
        for (const pmc::EventGroup& group : groups) {
          jobs.push_back({&workload, ghz, threads, &group, rng(),
                          (dir / ("run" + std::to_string(jobs.size()) + ".otf2l")).string()});
        }
      }
    }
  }
  const sim::Engine engine = sim::Engine::haswell_ep();
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    sim::RunConfig rc;
    rc.frequency_ghz = job.frequency_ghz;
    rc.threads = job.threads;
    rc.interval_s = 0.25;
    rc.duration_scale = 0.4;
    rc.seed = job.seed;
    trace::write_trace_file(
        trace::build_standard_trace(engine.run(*job.workload, rc), job.group->events),
        job.path);
  }
  std::vector<std::string> paths;
  for (const Job& job : jobs) {
    paths.push_back(job.path);
  }
  return paths;
}

serve::RefreshConfig refresh_config(std::vector<std::string> paths) {
  serve::RefreshConfig config;
  config.trace_paths = std::move(paths);
  config.ingest.mmap = true;
  config.event_count = 6;
  config.holdout_fraction = 0.25;
  return config;
}

/// The candidate a refresh of `config` fits, built stage by stage through
/// the same public calls refresh_model makes, each under its own span.
core::PowerModel fit_stages(const serve::RefreshConfig& config) {
  acquire::Dataset dataset;
  {
    const obs::Span scope("bench/trace.ingest");
    dataset = acquire::ingest_trace_files(config.trace_paths, config.ingest);
  }
  acquire::HoldoutSplit split;
  {
    const obs::Span scope("bench/serve.split");
    split = acquire::split_holdout(dataset, config.holdout_fraction, config.holdout_seed);
  }
  core::FeatureSpec spec;
  {
    const obs::Span scope("bench/selection.select");
    core::SelectionOptions selection;
    selection.count = config.event_count;
    selection.max_mean_vif = config.max_mean_vif;
    spec.events = core::select_events(split.train, dataset.common_presets(), selection)
                      .selected();
  }
  const obs::Span scope("bench/fit.train");
  return core::train_model(split.train, spec);
}

}  // namespace

void run_corpus_refresh(const Args& args, Result& result) {
  const CorpusShape shape = corpus_shape(args.smoke);
  const fs::path dir = fs::path(".bench_work") /
                       ("corpus_refresh-" + std::to_string(::getpid()));
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
      fs::remove(dir.parent_path(), ignored);  // only when no other run uses it
    }
  } cleanup{dir};

  // Set-up: write the corpus, publish the incumbent (the model a refresh of
  // this corpus fits, so every refresh's candidate ties it on the holdout)
  // and run one warm-up refresh.
  serve::RefreshConfig config;
  std::unique_ptr<core::LayoutEpoch> epoch;
  serve::RefreshReport warmup;
  const OpTimes setup = timed_setup(args.smoke ? 1 : 3, [&] {
    config = refresh_config(write_corpus(shape, dir, args.seed));
    epoch = std::make_unique<core::LayoutEpoch>(fit_stages(config));
    warmup = serve::refresh_model(*epoch, config);
  });
  result.check(warmup.published(), "the warm-up refresh published");
  std::uintmax_t corpus_bytes = 0;
  for (const std::string& path : config.trace_paths) {
    corpus_bytes += fs::file_size(path);
  }

  // ---- Closed loop: one refresh after another against the same epoch.
  OpTimes untraced;
  OpTimes traced_ops;
  std::vector<serve::RefreshReport> reports;
  std::vector<std::uint64_t> generation_before;
  SpanLog log;
  bool spans_complete = true;
  const double loop_start = now_s();
  while (now_s() - loop_start < args.seconds || (args.trace && traced_ops.size() == 0)) {
    // Traced runs alternate traced and untraced refreshes.
    const bool traced = args.trace && reports.size() % 2 == 1;
    if (traced) {
      log.open(1 << 12);
    }
    generation_before.push_back(epoch->generation());
    reports.push_back((traced ? traced_ops : untraced).time([&] {
      const obs::Span scope("bench/serve.refresh");
      return serve::refresh_model(*epoch, config);
    }));
    if (traced) {
      (void)fit_stages(config);
      spans_complete = log.close() && spans_complete;
    }
  }
  if (args.perturb == "generation") {
    reports.back().published_generation += 1;
  }

  // ---- Output checks.
  const std::size_t rows = expected_rows(shape);
  const double holdout_mape = reports.front().candidate_holdout_mape_pct;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const serve::RefreshReport& report = reports[i];
    result.attempted += 1;
    result.failed += report.published() ? 0 : 1;
    result.check(report.published(),
                 "refresh " + std::to_string(i) + " published (" +
                     std::string(serve::refresh_status_name(report.status)) + ": " +
                     report.detail + ")");
    result.check(report.published_generation == generation_before[i] + 1,
                 "refresh " + std::to_string(i) + " advances the generation by one");
    result.check(report.dataset_rows == rows,
                 "the corpus merges into " + std::to_string(rows) + " rows");
    result.check(report.candidate_holdout_mape_pct <= config.max_holdout_mape_pct,
                 "holdout MAPE within the refresh ceiling");
    result.check(report.candidate_holdout_mape_pct == holdout_mape,
                 "every refresh of the run fits the same candidate");
  }
  result.check(epoch->generation() == generation_before.back() + 1,
               "the epoch serves the last published generation");
  result.check(config.trace_paths.size() ==
                   shape.workloads.size() * shape.frequencies_ghz.size() *
                       shape.threads.size() *
                       pmc::runs_required(pmc::haswell_ep_available_events()),
               "the corpus has one file per configuration and event group");
  result.context("model_digest", model_digest(epoch->current()->model));
  result.context("refreshes", reports.size());
  result.context("corpus_files", config.trace_paths.size());

  // ---- End-to-end metrics (untraced refreshes only).
  set_op_metrics(result, untraced, 95.0, setup);
  result.set("model_mape_pct", holdout_mape);

  if (!args.trace) {
    return;
  }
  // ---- Per-layer metrics from the traced refreshes.
  result.check(spans_complete, "no spans dropped in traced refreshes");
  const double ingest_ms = log.median_ms("trace.ingest");
  const double split_ms = log.median_ms("serve.split");
  const double select_ms = log.median_ms("selection.select");
  const double fit_ms = log.median_ms("fit.train");
  result.set("trace.ingest_ms", ingest_ms);
  result.set("trace.ingest_mb_per_s", static_cast<double>(corpus_bytes) / 1e3 / ingest_ms);
  result.set("trace.files", static_cast<double>(config.trace_paths.size()));
  result.set("trace.bytes", static_cast<double>(corpus_bytes));
  result.set("selection.select_ms", select_ms);
  result.set("fit.train_ms", fit_ms);
  result.set("serve.split_ms", split_ms);
  // The gates and the publish are what a refresh adds to its timed stages.
  result.set("serve.gate_ms",
             log.median_ms("serve.refresh") - ingest_ms - split_ms - select_ms - fit_ms);
  result.set("obs.tracing_overhead_pct", overhead_pct(untraced.wall_s(), traced_ops.wall_s()));
}

}  // namespace pwx::bench
