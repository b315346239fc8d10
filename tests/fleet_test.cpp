// Equivalence and scaling tests for the dense serving path and the sharded
// FleetEstimator: the dense (ModelLayout/DenseSample) representation must be
// bit-identical to the map-based one, and batched/sharded/parallel ingestion
// must be bit-identical to a serial ingest loop for any shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

const std::vector<pmc::Preset> kEvents{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC,
                                       pmc::Preset::BR_MSP};

/// Synthetic Eq.1-representable model over three events (same generator idea
/// as extensions_test).
const PowerModel& test_model() {
  static const PowerModel model = [] {
    Rng rng(31);
    Dataset ds;
    for (std::size_t i = 0; i < 150; ++i) {
      DataRow row;
      row.workload = "w" + std::to_string(i % 6);
      row.phase = "main";
      row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
      row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
      const double e1 = rng.uniform(0.1, 2.0);
      const double e2 = rng.uniform(0.0, 5.0);
      row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
      row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
      row.counter_rates[pmc::Preset::BR_MSP] = rng.uniform(0, 1e7);
      const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
      row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                            12.0 * row.avg_voltage + 6.0 + rng.normal(0.0, 0.5);
      row.elapsed_s = 1.0;
      ds.append(row);
    }
    FeatureSpec spec;
    spec.events = kEvents;
    return train_model(ds, spec);
  }();
  return model;
}

CounterSample random_sample(Rng& rng) {
  CounterSample sample;
  sample.elapsed_s = rng.uniform(0.05, 2.0);
  sample.frequency_ghz = rng.uniform(1.0, 3.5);
  sample.voltage = rng.uniform(0.7, 1.2);
  for (pmc::Preset p : kEvents) {
    sample.counts[p] = rng.uniform(0.0, 5e9);
  }
  return sample;
}

/// Randomly corrupts a sample the way flaky telemetry does.
CounterSample corrupt_sample(Rng& rng, CounterSample sample) {
  switch (static_cast<int>(rng.uniform(0.0, 5.0))) {
    case 0: sample.elapsed_s = 0.0; break;
    case 1: sample.voltage = -0.1; break;
    case 2: sample.counts.erase(kEvents[1]); break;
    case 3: sample.counts[kEvents[0]] = std::numeric_limits<double>::quiet_NaN(); break;
    default: sample.counts[kEvents[2]] = -4.0; break;
  }
  return sample;
}

// --------------------------------------------------- dense <-> map identity

TEST(DenseLayout, SlotOrderFollowsModelSpec) {
  const ModelLayout layout(test_model());
  ASSERT_EQ(layout.slots(), kEvents.size());
  for (std::size_t i = 0; i < kEvents.size(); ++i) {
    EXPECT_EQ(layout.events()[i], kEvents[i]);
    ASSERT_TRUE(layout.slot_of(kEvents[i]).has_value());
    EXPECT_EQ(*layout.slot_of(kEvents[i]), i);
  }
  EXPECT_FALSE(layout.slot_of(pmc::Preset::TLB_IM).has_value());
}

TEST(DenseLayout, PredictBitIdenticalToModelPredictRow) {
  const PowerModel& model = test_model();
  const ModelLayout layout(model);
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const CounterSample sample = random_sample(rng);
    const DenseSample dense = layout.to_dense(sample);
    // Independent oracle: the training-side prediction on the equivalent
    // DataRow (rates formed by the same counts/elapsed division).
    DataRow row;
    row.frequency_ghz = sample.frequency_ghz;
    row.avg_voltage = sample.voltage;
    row.elapsed_s = sample.elapsed_s;
    for (const auto& [preset, counts] : sample.counts) {
      row.counter_rates[preset] = counts / sample.elapsed_s;
    }
    EXPECT_EQ(layout.predict(dense), model.predict_row(row)) << "sample " << i;
  }
}

TEST(DenseLayout, StrictConversionThrowsOnMissingEvent) {
  const ModelLayout layout(test_model());
  Rng rng(5);
  CounterSample sample = random_sample(rng);
  sample.counts.erase(kEvents[0]);
  EXPECT_THROW(layout.to_dense(sample), InvalidArgument);
}

TEST(OnlineEstimatorDense, StrictPathBitIdenticalToMap) {
  Rng rng(1234);
  OnlineEstimator map_based(test_model(), /*smoothing=*/0.3);
  OnlineEstimator dense_based(test_model(), /*smoothing=*/0.3);
  for (int i = 0; i < 300; ++i) {
    const CounterSample sample = random_sample(rng);
    const DenseSample dense = dense_based.layout().to_dense(sample);
    EXPECT_EQ(map_based.estimate(sample), dense_based.estimate(dense))
        << "diverged at sample " << i;
  }
}

TEST(OnlineEstimatorDense, GuardedPathBitIdenticalToMapUnderFaults) {
  Rng rng(4321);
  OnlineEstimator map_based(test_model(), /*smoothing=*/0.4);
  OnlineEstimator dense_based(test_model(), /*smoothing=*/0.4);
  DenseSample dense = dense_based.layout().make_sample();
  for (int i = 0; i < 500; ++i) {
    CounterSample sample = random_sample(rng);
    if (rng.uniform() < 0.3) {  // fault bursts drive DEGRADED -> FAILED -> OK
      sample = corrupt_sample(rng, sample);
    }
    dense_based.layout().to_dense_guarded(sample, dense);
    EXPECT_EQ(map_based.estimate_guarded(sample),
              dense_based.estimate_guarded(dense))
        << "diverged at sample " << i;
    EXPECT_EQ(map_based.health(), dense_based.health()) << "sample " << i;
    EXPECT_EQ(map_based.consecutive_invalid(), dense_based.consecutive_invalid());
  }
}

// --------------------------------------------------- fleet batch equivalence

struct BatchRound {
  std::vector<NodeSample> samples;
};

/// A seeded multi-round fleet workload with out-of-order node times within a
/// round, repeated nodes, and injected faults.
std::vector<BatchRound> make_workload(const ModelLayout& layout,
                                      const std::vector<NodeId>& ids,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchRound> rounds(8);
  double base = 0.0;
  for (BatchRound& round : rounds) {
    base += 10.0;
    for (NodeId id : ids) {
      if (rng.uniform() < 0.15) {
        continue;  // node misses this round
      }
      NodeSample ns;
      ns.node = id;
      ns.now_s = base + rng.uniform(0.0, 5.0);
      CounterSample sample = random_sample(rng);
      if (rng.uniform() < 0.25) {
        sample = corrupt_sample(rng, sample);
      }
      layout.to_dense_guarded(sample, ns.sample);
      round.samples.push_back(ns);
      if (rng.uniform() < 0.1) {  // occasional double report, later timestamp
        NodeSample again = ns;
        again.now_s += 1.0;
        round.samples.push_back(again);
      }
    }
  }
  return rounds;
}

class FleetBatchEquivalence
    : public ::testing::TestWithParam<std::pair<std::size_t, bool>> {};

TEST_P(FleetBatchEquivalence, BatchBitIdenticalToSerialIngest) {
  const auto [shard_count, parallel] = GetParam();
  FleetOptions options;
  options.shard_count = shard_count;
  options.parallel_ingest = parallel;
  const double smoothing = 0.5;
  const double horizon = 1e9;
  FleetEstimator serial(test_model(), smoothing, horizon, options);
  FleetEstimator batched(test_model(), smoothing, horizon, options);

  const std::size_t node_count = 40;
  std::vector<NodeId> serial_ids, batched_ids;
  for (std::size_t n = 0; n < node_count; ++n) {
    const std::string name = "node" + std::to_string(n);
    serial_ids.push_back(serial.intern(name));
    batched_ids.push_back(batched.intern(name));
    EXPECT_EQ(serial_ids.back(), batched_ids.back());
  }

  const auto rounds = make_workload(serial.layout(), serial_ids, 0xABCD);
  for (const BatchRound& round : rounds) {
    for (const NodeSample& ns : round.samples) {
      serial.ingest(ns.node, ns.sample, ns.now_s);
    }
    EXPECT_EQ(batched.ingest_batch(round.samples), round.samples.size());
  }

  for (std::size_t n = 0; n < node_count; ++n) {
    const auto se = serial.node_estimate(serial_ids[n]);
    const auto be = batched.node_estimate(batched_ids[n]);
    ASSERT_EQ(se.has_value(), be.has_value()) << "node " << n;
    if (se.has_value()) {
      EXPECT_EQ(*se, *be) << "node " << n;  // bit-identical
    }
    EXPECT_EQ(serial.node_health(serial_ids[n]), batched.node_health(batched_ids[n]));
  }
  // Same shard count => same summation order => identical snapshots.
  const FleetSnapshot ss = serial.snapshot(100.0);
  const FleetSnapshot bs = batched.snapshot(100.0);
  EXPECT_EQ(ss.total_watts, bs.total_watts);
  EXPECT_EQ(ss.nodes_reporting, bs.nodes_reporting);
  EXPECT_EQ(ss.nodes_degraded, bs.nodes_degraded);
  EXPECT_EQ(ss.nodes_failed, bs.nodes_failed);
  EXPECT_EQ(ss.max_node_watts, bs.max_node_watts);
  EXPECT_EQ(ss.min_node_watts, bs.min_node_watts);
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndParallelSweep, FleetBatchEquivalence,
    ::testing::Values(std::pair<std::size_t, bool>{1, false},
                      std::pair<std::size_t, bool>{1, true},
                      std::pair<std::size_t, bool>{4, false},
                      std::pair<std::size_t, bool>{4, true},
                      std::pair<std::size_t, bool>{16, false},
                      std::pair<std::size_t, bool>{16, true}));

TEST(FleetSharding, NodeEstimatesAreShardCountIndependent) {
  // Per-node estimates are bit-identical across shard counts; the snapshot
  // total only changes by summation order (tolerance compare).
  std::vector<FleetSnapshot> snaps;
  std::vector<std::vector<double>> estimates;
  for (std::size_t shard_count : {1u, 4u, 16u}) {
    FleetOptions options;
    options.shard_count = shard_count;
    FleetEstimator fleet(test_model(), 0.5, 1e9, options);
    std::vector<NodeId> ids;
    for (std::size_t n = 0; n < 40; ++n) {
      ids.push_back(fleet.intern("node" + std::to_string(n)));
    }
    for (const BatchRound& round : make_workload(fleet.layout(), ids, 0xABCD)) {
      fleet.ingest_batch(round.samples);
    }
    std::vector<double> est;
    for (NodeId id : ids) {
      est.push_back(fleet.node_estimate(id).value_or(
          std::numeric_limits<double>::quiet_NaN()));
    }
    estimates.push_back(std::move(est));
    snaps.push_back(fleet.snapshot(100.0));
  }
  for (std::size_t c = 1; c < estimates.size(); ++c) {
    for (std::size_t n = 0; n < estimates[0].size(); ++n) {
      if (std::isnan(estimates[0][n])) {
        EXPECT_TRUE(std::isnan(estimates[c][n]));
      } else {
        EXPECT_EQ(estimates[0][n], estimates[c][n]) << "node " << n;
      }
    }
    EXPECT_EQ(snaps[0].nodes_reporting, snaps[c].nodes_reporting);
    EXPECT_EQ(snaps[0].nodes_degraded, snaps[c].nodes_degraded);
    EXPECT_EQ(snaps[0].nodes_failed, snaps[c].nodes_failed);
    EXPECT_DOUBLE_EQ(snaps[0].max_node_watts, snaps[c].max_node_watts);
    EXPECT_DOUBLE_EQ(snaps[0].min_node_watts, snaps[c].min_node_watts);
    EXPECT_NEAR(snaps[0].total_watts, snaps[c].total_watts,
                1e-9 * std::abs(snaps[0].total_watts));
  }
}

TEST(FleetSharding, BatchRejectsTimeGoingBackwardsLikeSerial) {
  FleetEstimator fleet(test_model());
  Rng rng(3);
  const NodeId id = fleet.intern("n");
  DenseSample dense = fleet.layout().make_sample();
  fleet.layout().to_dense_guarded(random_sample(rng), dense);
  std::vector<NodeSample> batch{{id, 10.0, dense}, {id, 5.0, dense}};
  EXPECT_THROW(fleet.ingest_batch(batch), InvalidArgument);
  // The first (valid) sample was applied before the throw, like a loop.
  EXPECT_TRUE(fleet.node_estimate(id).has_value());
}

TEST(FleetSharding, InternSurvivesHashGrowthAndRoundTrips) {
  FleetEstimator fleet(test_model());
  std::vector<NodeId> ids;
  for (std::size_t n = 0; n < 500; ++n) {  // well past the initial table size
    ids.push_back(fleet.intern("host-" + std::to_string(n)));
  }
  EXPECT_EQ(fleet.node_count(), 500u);
  for (std::size_t n = 0; n < 500; ++n) {
    const std::string name = "host-" + std::to_string(n);
    EXPECT_EQ(fleet.intern(name), ids[n]);  // idempotent
    ASSERT_TRUE(fleet.find(name).has_value());
    EXPECT_EQ(*fleet.find(name), ids[n]);
    EXPECT_EQ(fleet.node_name(ids[n]), name);
  }
  EXPECT_FALSE(fleet.find("never-interned").has_value());
}

// --------------------------------------------------- snapshot edge cases

TEST(FleetSnapshotExtremes, EmptyFleetHasNaNExtremes) {
  FleetEstimator fleet(test_model());
  const FleetSnapshot snap = fleet.snapshot(0.0);
  EXPECT_EQ(snap.nodes_reporting, 0u);
  EXPECT_EQ(snap.total_watts, 0.0);
  EXPECT_TRUE(std::isnan(snap.min_node_watts));
  EXPECT_TRUE(std::isnan(snap.max_node_watts));
}

TEST(FleetSnapshotExtremes, AllStaleFleetHasNaNExtremes) {
  FleetEstimator fleet(test_model(), 0.0, /*staleness_horizon_s=*/5.0);
  Rng rng(8);
  fleet.ingest("a", random_sample(rng), 0.0);
  fleet.ingest("b", random_sample(rng), 1.0);
  const FleetSnapshot snap = fleet.snapshot(100.0);
  EXPECT_EQ(snap.nodes_reporting, 0u);
  EXPECT_EQ(snap.nodes_stale, 2u);
  EXPECT_EQ(snap.total_watts, 0.0);
  EXPECT_TRUE(std::isnan(snap.min_node_watts));
  EXPECT_TRUE(std::isnan(snap.max_node_watts));
}

TEST(FleetSnapshotExtremes, ExtremesRecomputeWhenHolderGoesStale) {
  FleetEstimator fleet(test_model(), 0.0, /*staleness_horizon_s=*/50.0);
  Rng rng(12);
  // Three nodes with distinct estimates; the freshest reports are later.
  const double a = fleet.ingest("a", random_sample(rng), 0.0);
  const double b = fleet.ingest("b", random_sample(rng), 60.0);
  const double c = fleet.ingest("c", random_sample(rng), 60.0);
  // At t=100, node "a" (t=0) is stale; extremes must cover only {b, c}.
  const FleetSnapshot snap = fleet.snapshot(100.0);
  EXPECT_EQ(snap.nodes_reporting, 2u);
  EXPECT_EQ(snap.nodes_stale, 1u);
  EXPECT_DOUBLE_EQ(snap.max_node_watts, std::max(b, c));
  EXPECT_DOUBLE_EQ(snap.min_node_watts, std::min(b, c));
  EXPECT_NEAR(snap.total_watts, b + c, 1e-9);
  (void)a;
}

// Exact-extremes oracle: every shard delta's and every snapshot's min/max
// must be bit-equal to a brute-force fold over the fresh, non-failed nodes.
// The stream drives every path of the blocked extremum bookkeeping:
//   * a five-value estimate pool, so ties are everywhere; its two outer
//     values are rare, so an extreme often has one holder or a few tied ones;
//   * holders of an outer value pushed inward over and over;
//   * NaN streaks long enough to fail a node, then recovery;
//   * interns mid-stream, so shards grow across block edges;
//   * a short horizon, so active nodes go stale.
// Shard deltas are checked too because a fleet extreme usually has holders
// in several shards, which would hide a shard that lost its own. `batched`
// feeds parallel ingest_batch instead of serial ingest calls.
void check_extremes_under_churn(std::size_t shard_count, bool batched) {
  FleetOptions options;
  options.shard_count = shard_count;
  options.parallel_ingest = batched;
  const double horizon = 2.5;
  FleetEstimator fleet(test_model(), /*smoothing=*/0.0, horizon, options);
  const ModelLayout& layout = fleet.layout();

  // Five samples ordered by estimate: index 0 is the low, 4 the high value.
  Rng rng(0x5EED);
  std::vector<DenseSample> pool;
  while (pool.size() < 5) {
    DenseSample dense = layout.make_sample();
    layout.to_dense_guarded(random_sample(rng), dense);
    const double estimate = layout.predict(dense);
    if (estimate > 0.0 &&
        std::none_of(pool.begin(), pool.end(), [&](const DenseSample& d) {
          return layout.predict(d) == estimate;
        })) {
      pool.push_back(dense);
    }
  }
  std::sort(pool.begin(), pool.end(), [&](const DenseSample& x, const DenseSample& y) {
    return layout.predict(x) < layout.predict(y);
  });
  DenseSample nan_sample = pool[2];
  nan_sample.counts[0] = std::numeric_limits<double>::quiet_NaN();

  struct Node {
    NodeId id = 0;
    std::size_t shard = 0;
    std::size_t value = 2;    ///< pool index of the node's last valid sample
    int nan_left = 0;         ///< remaining samples of the current NaN streak
    double last_seen = -1.0;
  };
  std::vector<Node> nodes;
  const auto intern_more = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = "n" + std::to_string(nodes.size());
      nodes.push_back({fleet.intern(name),
                       FleetEstimator::name_hash(name) % shard_count});
    }
  };
  intern_more(3000);

  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::size_t stale_snapshots = 0;
  std::size_t failed_snapshots = 0;
  for (int round = 1; round <= 40; ++round) {
    const auto now = static_cast<double>(round);
    std::vector<NodeSample> samples;
    for (Node& node : nodes) {
      const int reports = rng.uniform() < 0.5 ? 0 : (rng.uniform() < 0.1 ? 2 : 1);
      for (int r = 0; r < reports; ++r) {
        if (node.nan_left == 0 && rng.uniform() < 0.01) {
          node.nan_left = 8;  // guards fail a node after 5 invalid in a row
        }
        if (node.nan_left > 0) {
          node.nan_left -= 1;
          samples.push_back({node.id, now, nan_sample});
        } else {
          if ((node.value == 0 || node.value == 4) && rng.uniform() < 0.5) {
            node.value = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
          } else if (rng.uniform() < 0.3) {
            const double u = rng.uniform();
            node.value = u < 0.002   ? 0
                         : u > 0.998 ? 4
                                     : 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
          }
          samples.push_back({node.id, now, pool[node.value]});
        }
        node.last_seen = now;
      }
    }
    if (batched) {
      fleet.ingest_batch(samples);
    } else {
      for (const NodeSample& ns : samples) {
        fleet.ingest(ns.node, ns.sample, ns.now_s);
      }
    }
    intern_more(80);  // never-reported nodes join mid-stream

    for (const double at : {now, now + 1.75}) {
      // Brute force per shard (indices 0..shard_count-1) and fleet-wide.
      struct Fold {
        std::size_t fresh = 0;
        double lo = std::numeric_limits<double>::quiet_NaN();
        double hi = std::numeric_limits<double>::quiet_NaN();
        void add(double estimate) {
          lo = fresh == 0 ? estimate : std::min(lo, estimate);
          hi = fresh == 0 ? estimate : std::max(hi, estimate);
          fresh += 1;
        }
      };
      std::vector<Fold> want(shard_count + 1);
      std::size_t stale_active = 0;
      std::size_t failed = 0;
      for (const Node& node : nodes) {
        const std::optional<double> estimate = fleet.node_estimate(node.id);
        if (!estimate.has_value()) {
          continue;
        }
        if (at - node.last_seen > horizon) {
          stale_active += 1;
          continue;
        }
        if (fleet.node_health(node.id) == HealthState::Failed) {
          failed += 1;
          continue;
        }
        want[node.shard].add(*estimate);
        want[shard_count].add(*estimate);
      }
      SCOPED_TRACE("round " + std::to_string(round) + " at " + std::to_string(at));
      std::vector<ShardDeltaRecord> got;
      fleet.shard_deltas(at, got);
      ASSERT_EQ(got.size(), shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        ASSERT_EQ(got[s].reporting, want[s].fresh) << "shard " << s;
        ASSERT_EQ(bits(got[s].min_watts), bits(want[s].lo)) << "shard " << s;
        ASSERT_EQ(bits(got[s].max_watts), bits(want[s].hi)) << "shard " << s;
      }
      const FleetSnapshot snap = fleet.snapshot(at);
      ASSERT_EQ(snap.nodes_reporting, want[shard_count].fresh);
      ASSERT_EQ(bits(snap.min_node_watts), bits(want[shard_count].lo));
      ASSERT_EQ(bits(snap.max_node_watts), bits(want[shard_count].hi));
      stale_snapshots += stale_active > 0 ? 1 : 0;
      failed_snapshots += failed > 0 ? 1 : 0;
    }
  }
  // The stream really drove the stale and failed paths.
  EXPECT_GT(stale_snapshots, 10u);
  EXPECT_GT(failed_snapshots, 10u);
}

TEST(FleetSnapshotExtremes, MatchBruteForceUnderChurn) {
  for (const std::size_t shard_count : {1u, 16u}) {
    for (const bool batched : {false, true}) {
      SCOPED_TRACE("shards " + std::to_string(shard_count) +
                   (batched ? " parallel ingest_batch" : " serial ingest"));
      check_extremes_under_churn(shard_count, batched);
    }
  }
}

}  // namespace
}  // namespace pwx::core
