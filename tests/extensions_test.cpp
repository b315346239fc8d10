// Tests for the fleet-scale estimation extension: FleetEstimator fed one
// map-based CounterSample per node.
#include <gtest/gtest.h>

#include <algorithm>

#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

/// Synthetic Eq.1-representable dataset with two informative events and two
/// noise events (same generator idea as core_test).
Dataset synthetic_dataset(std::size_t n = 120, std::uint64_t seed = 9) {
  Rng rng(seed);
  Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 6);
    row.phase = "main";
    row.suite = (i % 2 == 0) ? workloads::Suite::Roco2 : workloads::Suite::SpecOmp;
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    const double e2 = rng.uniform(0.0, 5.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::BR_MSP] = rng.uniform(0, 1e7);
    row.counter_rates[pmc::Preset::TLB_IM] = rng.uniform(0, 1e6);
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                          12.0 * row.avg_voltage + 6.0 + rng.normal(0.0, 0.5);
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

// ------------------------------------------------- fleet estimation

PowerModel fleet_model() {
  const Dataset ds = synthetic_dataset(150, 21);
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  return train_model(ds, spec);
}

CounterSample fleet_sample(double scale = 1.0) {
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = 2.4;
  sample.voltage = 1.0;
  sample.counts[pmc::Preset::PRF_DM] = 1.0e9 * scale;
  sample.counts[pmc::Preset::TOT_CYC] = 5.0e9 * scale;
  return sample;
}

TEST(Fleet, TotalsSumNodeEstimates) {
  FleetEstimator fleet(fleet_model());
  const double a = fleet.ingest("node0", fleet_sample(1.0), 0.0);
  const double b = fleet.ingest("node1", fleet_sample(2.0), 0.0);
  const FleetSnapshot snap = fleet.snapshot(0.0);
  EXPECT_EQ(snap.nodes_reporting, 2u);
  EXPECT_NEAR(snap.total_watts, a + b, 1e-9);
  EXPECT_DOUBLE_EQ(snap.max_node_watts, std::max(a, b));
  EXPECT_DOUBLE_EQ(snap.min_node_watts, std::min(a, b));
}

TEST(Fleet, NodeEstimateMatchesModelPrediction) {
  const PowerModel model = fleet_model();
  FleetEstimator fleet(model);
  OnlineEstimator reference(model);
  const double via_fleet = fleet.ingest("n", fleet_sample(), 0.0);
  EXPECT_NEAR(via_fleet, reference.estimate(fleet_sample()), 1e-9);
  EXPECT_NEAR(*fleet.node_estimate("n"), via_fleet, 1e-12);
  EXPECT_FALSE(fleet.node_estimate("ghost").has_value());
}

TEST(Fleet, StaleNodesDropOutOfTotals) {
  FleetEstimator fleet(fleet_model(), 0.0, /*staleness_horizon_s=*/5.0);
  fleet.ingest("fresh", fleet_sample(), 100.0);
  fleet.ingest("stale", fleet_sample(), 10.0);
  const FleetSnapshot snap = fleet.snapshot(100.0);
  EXPECT_EQ(snap.nodes_reporting, 1u);
  EXPECT_EQ(snap.nodes_stale, 1u);
}

TEST(Fleet, NodesAreRegisteredOnFirstUse) {
  FleetEstimator fleet(fleet_model());
  fleet.ingest("b", fleet_sample(), 0.0);
  fleet.ingest("a", fleet_sample(), 0.0);
  const auto nodes = fleet.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], "a");
  EXPECT_EQ(nodes[1], "b");
}

TEST(Fleet, RejectsTimeGoingBackwards) {
  FleetEstimator fleet(fleet_model());
  fleet.ingest("n", fleet_sample(), 10.0);
  EXPECT_THROW(fleet.ingest("n", fleet_sample(), 5.0), InvalidArgument);
}

TEST(Fleet, RejectsBadConstruction) {
  EXPECT_THROW(FleetEstimator(fleet_model(), 0.0, 0.0), InvalidArgument);
}

TEST(Fleet, SmoothingIsPerNode) {
  FleetEstimator fleet(fleet_model(), /*smoothing=*/0.9);
  // Feed node A a big sample, node B a small one; smoothing must not bleed
  // between nodes.
  const double a1 = fleet.ingest("a", fleet_sample(3.0), 0.0);
  const double b1 = fleet.ingest("b", fleet_sample(0.5), 0.0);
  EXPECT_GT(a1, b1);
  const double b2 = fleet.ingest("b", fleet_sample(0.5), 1.0);
  EXPECT_NEAR(b2, b1, 1e-9);  // steady input, steady estimate
}

}  // namespace
}  // namespace pwx::core
