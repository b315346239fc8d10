// fleet_serve: a 1,000,000-node FleetEstimator serving the model_build model.
//
// One operation = one ingest_batch of 16,384 samples from seeded random
// nodes (parallel ingest on), followed by one snapshot, so every write has a
// read beside it. About 0.1% of the samples carry a NaN elapsed time, which
// keeps the guarded path live. The node state is far larger than a core's
// caches. This workload goes through the estimate and fleet layers and not
// through sim or trace.
#include <cmath>
#include <memory>

#include "core/dense_kernels.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "obs/span.hpp"

namespace pwx::bench {

namespace {

constexpr double kInvalidFraction = 0.001;
constexpr double kElapsedS = 0.25;  // a power of two: the exact-reciprocal lanes
constexpr std::size_t kShards = 16;
constexpr std::size_t kTraceBlockTicks = 32;
// The fleet serves the model of the standard campaign whatever the workload
// seed, which makes only the sample stream: the seed then moves the stream
// and not which six events the served model uses.
constexpr std::uint64_t kModelSeed = 0xACD1;

struct Sizes {
  std::size_t nodes;
  std::size_t batch;
};

/// The seeded sample stream. Tick t's batch is a pure function of (seed, t),
/// so the serial reference replay regenerates exactly what was timed. The
/// first registration_ticks() ticks visit every node once, in order; after
/// them each lane draws a random node.
class Stream {
public:
  Stream(const acquire::Dataset& training, const core::ModelLayout& layout,
         std::uint64_t seed, std::vector<core::NodeId> nodes, std::size_t batch)
      : seed_(seed), nodes_(std::move(nodes)),
        registration_ticks_((nodes_.size() + batch - 1) / batch) {
    // Each sample replays one training row as a 0.25 s counter reading.
    for (const acquire::DataRow& row : training.rows()) {
      core::DenseSample sample = layout.make_sample();
      sample.elapsed_s = kElapsedS;
      sample.frequency_ghz = row.frequency_ghz;
      sample.voltage = row.avg_voltage;
      for (std::size_t slot = 0; slot < layout.slots(); ++slot) {
        sample.counts[slot] = row.counter_rates.at(layout.events()[slot]) * kElapsedS;
      }
      templates_.push_back(std::move(sample));
      measured_watts_.push_back(row.avg_power_watts);
    }
  }

  /// Fill `batch` (already sized) with tick `tick`'s samples; `rows[i]` is
  /// the training row lane i replays. Returns the number of invalid lanes.
  std::size_t fill(std::uint64_t tick, std::vector<core::NodeSample>& batch,
                   std::vector<std::uint32_t>& rows) const {
    std::uint64_t state = seed_ ^ (tick * 0x9E3779B97F4A7C15ULL);
    Rng rng(splitmix64(state));
    std::size_t invalid = 0;
    rows.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      core::NodeSample& ns = batch[i];
      ns.node = tick < registration_ticks_
                    ? nodes_[(tick * batch.size() + i) % nodes_.size()]
                    : nodes_[rng.uniform_index(nodes_.size())];
      ns.now_s = static_cast<double>(tick);
      rows[i] = static_cast<std::uint32_t>(rng.uniform_index(templates_.size()));
      const core::DenseSample& t = templates_[rows[i]];
      ns.sample.counts.assign(t.counts.begin(), t.counts.end());
      ns.sample.frequency_ghz = t.frequency_ghz;
      ns.sample.voltage = t.voltage;
      ns.sample.elapsed_s = t.elapsed_s;
      if (rng.uniform() < kInvalidFraction) {
        ns.sample.elapsed_s = std::nan("");
        invalid += 1;
      }
    }
    return invalid;
  }

  double measured_watts(std::uint32_t row) const { return measured_watts_[row]; }
  const std::vector<core::NodeId>& nodes() const { return nodes_; }
  std::uint64_t registration_ticks() const { return registration_ticks_; }

private:
  std::uint64_t seed_;
  std::vector<core::NodeId> nodes_;
  std::uint64_t registration_ticks_;
  std::vector<core::DenseSample> templates_;
  std::vector<double> measured_watts_;
};

std::vector<core::NodeId> intern_nodes(core::FleetEstimator& fleet, std::size_t nodes) {
  std::vector<core::NodeId> ids;
  ids.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    ids.push_back(fleet.intern("node" + std::to_string(n)));
  }
  return ids;
}

std::unique_ptr<core::FleetEstimator> make_fleet(const core::PowerModel& model,
                                                 bool parallel) {
  core::FleetOptions options;
  options.shard_count = kShards;
  options.parallel_ingest = parallel;
  // Nodes report every ~60 ticks on average; a horizon this long keeps every
  // reported node fresh, so the total covers the whole fleet.
  return std::make_unique<core::FleetEstimator>(model, /*smoothing=*/0.0,
                                                /*staleness_horizon_s=*/1e12, options);
}

/// The estimate layer alone: the guarded batch kernel over one tick's
/// samples, outside the fleet. Returns the lanes the guard rejected.
class EstimatePass {
public:
  explicit EstimatePass(const core::ModelLayout& layout) : layout_(layout) {}

  std::size_t run(const std::vector<core::NodeSample>& batch) {
    samples_.reset(layout_, batch.size());
    for (const core::NodeSample& ns : batch) {
      samples_.append(ns.sample);
    }
    out_.resize(batch.size());
    health_.resize(batch.size());
    {
      const obs::Span scope("bench/estimate.batch");
      core::guarded_estimate_batch(layout_, 0.0, core::EstimatorGuards{}, samples_,
                                   state_, out_, health_);
    }
    std::size_t invalid = 0;
    for (const core::HealthState h : health_) {
      invalid += h != core::HealthState::Ok ? 1 : 0;
    }
    return invalid;
  }

private:
  const core::ModelLayout& layout_;
  core::SampleBatch samples_;
  core::GuardedState state_;
  std::vector<double> out_;
  std::vector<core::HealthState> health_;
};

}  // namespace

void run_fleet_serve(const Args& args, Result& result) {
  const Sizes sizes = args.smoke ? Sizes{20000, 1024} : Sizes{1000000, 16384};

  // Set-up: train the model_build model, build the fleet, intern every node
  // and ingest the registration ticks, so the timed ticks run on a fleet in
  // which every node is active (the registration ticks are part of the
  // replayed stream).
  StandardModel standard;
  std::unique_ptr<core::FleetEstimator> fleet;
  std::unique_ptr<Stream> stream;
  std::vector<core::NodeSample> batch(sizes.batch);
  std::vector<std::uint32_t> rows;
  std::size_t injected_invalid = 0;
  std::uint64_t tick = 0;  // the next tick of the stream
  const OpTimes setup = timed_setup(args.smoke ? 1 : 3, [&] {
    fleet.reset();
    standard = train_standard_model(kModelSeed);
    fleet = make_fleet(standard.model, true);
    stream = std::make_unique<Stream>(standard.training, fleet->layout(), args.seed,
                                      intern_nodes(*fleet, sizes.nodes), sizes.batch);
    injected_invalid = 0;
    for (tick = 0; tick < stream->registration_ticks(); ++tick) {
      injected_invalid += stream->fill(tick, batch, rows);
      fleet->ingest_batch(batch);
    }
    (void)fleet->snapshot(static_cast<double>(tick - 1));
  });

  // ---- Closed loop: one tick = ingest_batch + snapshot.
  EstimatePass estimate(fleet->layout());
  std::size_t loop_invalid = 0;
  std::size_t estimate_invalid = 0;
  OpTimes ticks;
  OpTimes traced_ticks;
  std::vector<double> ingest_s;
  std::vector<double> snapshot_s;
  SpanLog log;
  bool session_open = false;
  bool spans_complete = true;
  const double loop_start = now_s();
  for (std::uint64_t n = 0; now_s() - loop_start < args.seconds ||
                            (args.trace && traced_ticks.size() == 0);
       ++n, ++tick) {
    // Traced runs alternate blocks of untraced and traced ticks.
    const bool traced = args.trace && (n / kTraceBlockTicks) % 2 == 1;
    if (traced && !session_open) {
      log.open(1 << 10);
      session_open = true;
    }
    loop_invalid += stream->fill(tick, batch, rows);
    const std::size_t ingested = (traced ? traced_ticks : ticks).time([&] {
      const double start = now_s();
      std::size_t n_ingested = 0;
      {
        const obs::Span scope("bench/fleet.ingest");
        n_ingested = fleet->ingest_batch(batch);
      }
      const double ingested_at = now_s();
      {
        const obs::Span scope("bench/fleet.snapshot");
        (void)fleet->snapshot(static_cast<double>(tick));
      }
      if (!traced) {
        ingest_s.push_back(ingested_at - start);
        snapshot_s.push_back(now_s() - ingested_at);
      }
      return n_ingested;
    });
    if (args.trace) {
      estimate_invalid += estimate.run(batch);
    }
    result.attempted += 1;
    result.failed += ingested == batch.size() ? 0 : 1;
    if (session_open && (n + 1) % kTraceBlockTicks == 0) {
      spans_complete = log.close() && spans_complete;
      session_open = false;
    }
  }
  if (session_open) {
    spans_complete = log.close() && spans_complete;
  }
  injected_invalid += loop_invalid;
  const double last_s = static_cast<double>(tick - 1);
  const core::FleetSnapshot final_snapshot = fleet->snapshot(last_s);
  std::uint64_t digest = core::snapshot_digest(final_snapshot);
  if (args.perturb == "digest") {
    digest ^= 1;
  }

  // ---- Output check: an untimed serial replay of the same stream through
  // the per-sample FleetEstimator::ingest must reach a bit-identical
  // snapshot. It also scores the served watts against the measured watts of
  // the training rows the samples replay, and counts what the guard rejects.
  const core::PowerModel& model = standard.model;
  fleet.reset();
  auto reference = make_fleet(model, false);
  result.check(intern_nodes(*reference, sizes.nodes) == stream->nodes(),
               "the reference fleet assigns the same node handles");
  EstimatePass replay_estimate(reference->layout());
  std::size_t replay_invalid = 0;
  std::size_t replay_estimate_invalid = 0;
  double abs_pct_error = 0.0;
  std::size_t scored = 0;
  for (std::uint64_t t = 0; t < tick; ++t) {
    replay_invalid += stream->fill(t, batch, rows);
    replay_estimate_invalid += replay_estimate.run(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const core::NodeSample& ns = batch[i];
      const double watts = reference->ingest(ns.node, ns.sample, ns.now_s);
      if (std::isfinite(ns.sample.elapsed_s)) {
        const double measured = stream->measured_watts(rows[i]);
        abs_pct_error += std::abs(watts - measured) / measured;
        scored += 1;
      }
    }
  }
  const std::uint64_t reference_digest =
      core::snapshot_digest(reference->snapshot(last_s));
  result.check(digest == reference_digest,
               "final snapshot digest equals the serial ingest replay");
  result.check(replay_invalid == injected_invalid,
               "the replay regenerates the timed stream");
  result.check(replay_estimate_invalid == injected_invalid,
               "guarded_estimate_batch rejects exactly the injected invalid samples");
  if (args.trace) {
    result.check(estimate_invalid == loop_invalid,
                 "timed estimate passes reject exactly the injected invalid samples");
  }
  result.check(final_snapshot.nodes_failed == 0, "no node fails");
  result.check(final_snapshot.nodes_interned == sizes.nodes, "every node is interned");
  result.check(result.failed == 0, "every batch ingests all of its samples");
  result.context("snapshot_digest", Digest{digest}.hex());
  result.context("model_digest", model_digest(model));
  result.context("ticks", tick);
  result.context("invalid_samples", injected_invalid);

  // ---- End-to-end metrics (untraced ticks only). One operation is a
  // whole tick: the batch in, the fleet total out.
  set_op_metrics(result, ticks, 99.0, setup);
  result.set("model_mape_pct", abs_pct_error / static_cast<double>(scored) * 100.0);
  result.context("ingest_wall_p50_ms", median(ingest_s) * 1e3);
  result.context("ingest_wall_p99_ms", percentile(ingest_s, 99.0) * 1e3);
  result.context("snapshot_wall_p50_us", median(snapshot_s) * 1e6);
  result.context("snapshot_wall_p99_us", percentile(snapshot_s, 99.0) * 1e6);
  result.context("samples_per_wall_s",
                 static_cast<double>(ticks.size() * sizes.batch) / ticks.total().wall_s);

  if (!args.trace) {
    return;
  }
  // ---- Per-layer metrics from the traced ticks.
  result.check(spans_complete, "no spans dropped in traced ticks");
  const double per_sample_ns = 1e9 / static_cast<double>(sizes.batch);
  const double estimate_ns = median(log.durations("estimate.batch")) * per_sample_ns;
  const double ingest_ns = median(log.durations("fleet.ingest")) * per_sample_ns;
  result.set("estimate.ns_per_sample", estimate_ns);
  result.set("estimate.lanes_invalid", static_cast<double>(estimate_invalid));
  result.set("fleet.ingest_ns_per_sample", ingest_ns);
  result.set("fleet.snapshot_us", median(log.durations("fleet.snapshot")) * 1e6);
  result.set("fleet.snapshot_p99_us",
             percentile(log.durations("fleet.snapshot"), 99.0) * 1e6);
  result.set("fleet.estimate_share", estimate_ns / ingest_ns);
  result.set("fleet.nodes_degraded", static_cast<double>(final_snapshot.nodes_degraded));
  result.set("obs.tracing_overhead_pct", overhead_pct(ticks.wall_s(), traced_ticks.wall_s()));
}

}  // namespace pwx::bench
