// Tests for energy accounting and leave-one-workload-out validation.
#include <gtest/gtest.h>

#include <limits>

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/energy.hpp"
#include "core/low_validate.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "host/sim_source.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

Dataset tiny_dataset(std::size_t n = 80, std::uint64_t seed = 4) {
  Rng rng(seed);
  Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 5);
    row.phase = "main";
    row.suite = (i % 2 == 0) ? workloads::Suite::Roco2 : workloads::Suite::SpecOmp;
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts =
        25.0 * e1 * v2f + 6.0 * v2f + 10.0 * row.avg_voltage + 5.0;
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

PowerModel tiny_model() {
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM};
  return train_model(tiny_dataset(), spec);
}

CounterSample sample_watts(const PowerModel& model, double rate, double elapsed) {
  CounterSample s;
  s.elapsed_s = elapsed;
  s.frequency_ghz = 2.0;
  s.voltage = 0.9;
  s.counts[pmc::Preset::PRF_DM] = rate * elapsed;
  (void)model;
  return s;
}

// ---------------------------------------------------------------- energy

TEST(Energy, IntegratesPowerOverTime) {
  const PowerModel model = tiny_model();
  EnergyAccountant accountant(model);
  OnlineEstimator reference(model);

  double expected = 0.0;
  for (int i = 0; i < 5; ++i) {
    const CounterSample s = sample_watts(model, 1e9 + 1e8 * i, 0.5);
    expected += reference.estimate(s) * 0.5;
    accountant.add(s);
  }
  const EnergyReport report = accountant.report();
  EXPECT_NEAR(report.energy_joules, expected, 1e-9);
  EXPECT_NEAR(report.elapsed_s, 2.5, 1e-12);
  EXPECT_NEAR(report.average_watts, expected / 2.5, 1e-9);
  EXPECT_EQ(report.samples, 5u);
}

TEST(Energy, PeakTracksHighestInterval) {
  const PowerModel model = tiny_model();
  EnergyAccountant accountant(model);
  OnlineEstimator reference(model);
  accountant.add(sample_watts(model, 5e8, 1.0));
  const double high = reference.estimate(sample_watts(model, 3e9, 1.0));
  accountant.add(sample_watts(model, 3e9, 1.0));
  accountant.add(sample_watts(model, 1e9, 1.0));
  EXPECT_NEAR(accountant.report().peak_watts, high, 1e-9);
}

TEST(Energy, EnergyDelayProducts) {
  const PowerModel model = tiny_model();
  EnergyAccountant accountant(model);
  accountant.add(sample_watts(model, 1e9, 2.0));
  const EnergyReport report = accountant.report();
  EXPECT_NEAR(report.energy_delay, report.energy_joules * 2.0, 1e-9);
  EXPECT_NEAR(report.energy_delay_squared, report.energy_joules * 4.0, 1e-9);
}

TEST(Energy, ResetClearsState) {
  const PowerModel model = tiny_model();
  EnergyAccountant accountant(model);
  accountant.add(sample_watts(model, 1e9, 1.0));
  accountant.reset();
  const EnergyReport report = accountant.report();
  EXPECT_DOUBLE_EQ(report.energy_joules, 0.0);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_DOUBLE_EQ(report.average_watts, 0.0);
}

TEST(Energy, InvalidSampleThrowsAndLeavesTotalsUntouched) {
  // A NaN count or an infinite voltage would otherwise fold a NaN or
  // infinite interval into the running totals for good.
  const PowerModel model = tiny_model();
  EnergyAccountant accountant(model);
  accountant.add(sample_watts(model, 1e9, 1.0));
  const EnergyReport before = accountant.report();

  CounterSample nan_count = sample_watts(model, 1e9, 1.0);
  nan_count.counts[pmc::Preset::PRF_DM] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(accountant.add(nan_count), InvalidArgument);
  CounterSample inf_voltage = sample_watts(model, 1e9, 1.0);
  inf_voltage.voltage = std::numeric_limits<double>::infinity();
  EXPECT_THROW(accountant.add(inf_voltage), InvalidArgument);

  const EnergyReport after = accountant.report();
  EXPECT_EQ(after.energy_joules, before.energy_joules);
  EXPECT_EQ(after.elapsed_s, before.elapsed_s);
  EXPECT_EQ(after.peak_watts, before.peak_watts);
  EXPECT_EQ(after.samples, 1u);
}

TEST(Energy, AccountsASimulatedRunCloseToTruth) {
  // Full-stack: model trained on the standard campaign, energy accounted
  // over a fresh simulated run, compared against the integral of the
  // simulated measurement.
  SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  FeatureSpec spec;
  spec.events = select_events(acquire::standard_selection_dataset(),
                              pmc::haswell_ep_available_events(), opt)
                    .selected();
  const PowerModel model = train_model(acquire::standard_training_dataset(), spec);
  EnergyAccountant accountant(model);

  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.3;
  rc.seed = 31337;
  host::SimulatedCounterSource source(engine, *workloads::find_workload("bt331"), rc);
  source.start(accountant.required_events());
  double true_joules = 0.0;
  while (const auto sample = source.read()) {
    accountant.add(*sample);
    true_joules += source.last_interval_power() * sample->elapsed_s;
  }
  const EnergyReport report = accountant.report();
  EXPECT_NEAR(report.energy_joules / true_joules, 1.0, 0.15);
}

// ---------------------------------------------------------------- LOWO

TEST(Lowo, ProducesOneHoldoutPerWorkload) {
  const Dataset ds = tiny_dataset();
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM};
  const LowoSummary summary = leave_one_workload_out(ds, spec);
  EXPECT_EQ(summary.holdouts.size(), 5u);
  for (const WorkloadHoldout& h : summary.holdouts) {
    EXPECT_FALSE(h.fit_failed);
    EXPECT_EQ(h.rows, 16u);
    EXPECT_GE(h.mape, 0.0);
  }
  EXPECT_FALSE(summary.worst_workload.empty());
  EXPECT_GE(summary.worst_mape, summary.mean_mape);
}

TEST(Lowo, ExactDataGivesNearZeroError) {
  const Dataset ds = tiny_dataset();  // noise-free Eq.1 data
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM};
  const LowoSummary summary = leave_one_workload_out(ds, spec);
  EXPECT_LT(summary.mean_mape, 1e-6);
}

TEST(Lowo, UnseenWorkloadErrorExceedsKfoldOnRealData) {
  // On the standard dataset LOWO must be at least as hard as random k-fold.
  const auto& ds = acquire::standard_training_dataset();
  SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  FeatureSpec spec;
  spec.events = select_events(acquire::standard_selection_dataset(),
                              pmc::haswell_ep_available_events(), opt)
                    .selected();
  const LowoSummary lowo = leave_one_workload_out(ds, spec);
  EXPECT_GT(lowo.mean_mape, 5.0);
  EXPECT_EQ(lowo.holdouts.size(), ds.workload_names().size());
}

TEST(Lowo, RejectsSingleWorkloadDatasets) {
  Dataset ds = tiny_dataset();
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM};
  EXPECT_THROW(leave_one_workload_out(ds.filter_workloads({"w0"}), spec),
               InvalidArgument);
}

}  // namespace
}  // namespace pwx::core
