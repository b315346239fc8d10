// Tests for the modeling core: features, model, Algorithm 1 selection,
// cross-validation, scenarios, PCC, serialization, and the online estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <filesystem>

#include <unistd.h>

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "core/model_io.hpp"
#include "core/pcc.hpp"
#include "core/scenario.hpp"
#include "core/selection.hpp"
#include "core/validate.hpp"
#include "regress/ols.hpp"
#include "stats/kfold.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

/// A synthetic dataset whose power is exactly Eq.1-representable:
/// P = 20 E1 V²f + 5 E2 V²f + 8 V²f + 12 V + 6.
Dataset exact_dataset(std::size_t n = 64, double noise = 0.0, std::uint64_t seed = 9) {
  Rng rng(seed);
  Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 7);
    row.phase = "main";
    row.suite = (i % 2 == 0) ? workloads::Suite::Roco2 : workloads::Suite::SpecOmp;
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    const double e2 = rng.uniform(0.0, 5.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                          12.0 * row.avg_voltage + 6.0 + rng.normal(0.0, noise);
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

FeatureSpec exact_spec() {
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  return spec;
}

// ---------------------------------------------------------------- features

TEST(Features, ColumnLayoutMatchesEquationOne) {
  const Dataset ds = exact_dataset(8);
  const FeatureSpec spec = exact_spec();
  const la::Matrix x = build_features(ds, spec);
  EXPECT_EQ(x.cols(), 4u);  // 2 events + V²f + V
  const DataRow& row = ds.rows()[0];
  const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
  EXPECT_NEAR(x(0, 0), row.rate_per_cycle(pmc::Preset::PRF_DM) * v2f, 1e-12);
  EXPECT_NEAR(x(0, 2), v2f, 1e-12);
  EXPECT_NEAR(x(0, 3), row.avg_voltage, 1e-12);
}

TEST(Features, OptionalColumnsCanBeDropped) {
  const Dataset ds = exact_dataset(8);
  FeatureSpec spec = exact_spec();
  spec.include_dynamic_base = false;
  spec.include_static_v = false;
  EXPECT_EQ(build_features(ds, spec).cols(), 2u);
}

TEST(Features, PerSecondNormalizationDiffers) {
  const Dataset ds = exact_dataset(8);
  FeatureSpec per_cycle = exact_spec();
  FeatureSpec per_second = exact_spec();
  per_second.normalization = RateNormalization::PerSecond;
  const la::Matrix a = build_features(ds, per_cycle);
  const la::Matrix b = build_features(ds, per_second);
  EXPECT_NE(a(0, 0), b(0, 0));
  // Per-second = per-cycle * f (both scaled to 1e9).
  EXPECT_NEAR(b(0, 0), a(0, 0) * ds.rows()[0].frequency_ghz, 1e-9);
}

TEST(Features, NamesMatchLayout) {
  const auto names = feature_names(exact_spec());
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "E(PRF_DM)*V2f");
  EXPECT_EQ(names[2], "V2f");
  EXPECT_EQ(names[3], "V");
}

TEST(Features, MissingVoltageRejected) {
  Dataset ds = exact_dataset(4);
  ds.rows()[1].avg_voltage = 0.0;
  EXPECT_THROW(build_features(ds, exact_spec()), InvalidArgument);
}

// ---------------------------------------------------------------- model

TEST(Model, RecoversExactCoefficients) {
  const Dataset ds = exact_dataset();
  const PowerModel model = train_model(ds, exact_spec());
  EXPECT_NEAR(model.alphas()[0], 20.0, 1e-8);
  EXPECT_NEAR(model.alphas()[1], 5.0, 1e-8);
  EXPECT_NEAR(model.beta(), 8.0, 1e-7);
  EXPECT_NEAR(model.gamma(), 12.0, 1e-6);
  EXPECT_NEAR(model.delta_z(), 6.0, 1e-6);
  EXPECT_NEAR(model.fit().r_squared, 1.0, 1e-12);
}

TEST(Model, PredictMatchesGroundTruthOnHeldOut) {
  const Dataset train = exact_dataset(64, 0.0, 1);
  const Dataset test = exact_dataset(32, 0.0, 2);
  const PowerModel model = train_model(train, exact_spec());
  const auto pred = model.predict(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_NEAR(pred[i], test.rows()[i].avg_power_watts, 1e-6);
  }
}

TEST(Model, PredictRowMatchesBatchPredict) {
  const Dataset ds = exact_dataset(16);
  const PowerModel model = train_model(ds, exact_spec());
  const auto batch = model.predict(ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_NEAR(model.predict_row(ds.rows()[i]), batch[i], 1e-12);
  }
}

TEST(Model, DefaultUsesHc3) {
  const Dataset ds = exact_dataset(64, 0.5);
  const PowerModel model = train_model(ds, exact_spec());
  EXPECT_EQ(model.fit().cov_type, regress::CovarianceType::HC3);
}

TEST(Model, SummaryContainsEquationTerms) {
  const Dataset ds = exact_dataset();
  const std::string s = train_model(ds, exact_spec()).summary();
  EXPECT_NE(s.find("E(PRF_DM)*V2f"), std::string::npos);
  EXPECT_NE(s.find("V2f"), std::string::npos);
}

// ---------------------------------------------------------------- selection

TEST(Selection, FindsTheInformativeEventsFirst) {
  // Power depends on PRF_DM and TOT_CYC only; distractor counters are noise.
  Rng rng(33);
  Dataset ds = exact_dataset(80, 0.2, 5);
  for (DataRow& row : ds.rows()) {
    row.counter_rates[pmc::Preset::BR_MSP] = rng.uniform(0, 1e7);
    row.counter_rates[pmc::Preset::TLB_IM] = rng.uniform(0, 1e6);
  }
  SelectionOptions opt;
  opt.count = 2;
  const auto result = select_events(
      ds, {pmc::Preset::BR_MSP, pmc::Preset::PRF_DM, pmc::Preset::TLB_IM,
           pmc::Preset::TOT_CYC},
      opt);
  const auto selected = result.selected();
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), pmc::Preset::PRF_DM) !=
              selected.end());
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), pmc::Preset::TOT_CYC) !=
              selected.end());
}

TEST(Selection, RSquaredIsMonotoneNondecreasing) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 6;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  ASSERT_EQ(result.steps.size(), 6u);
  for (std::size_t i = 1; i < result.steps.size(); ++i) {
    EXPECT_GE(result.steps[i].r_squared, result.steps[i - 1].r_squared - 1e-12);
  }
  // First step has no VIF ("n/a" in the paper's Table I).
  EXPECT_DOUBLE_EQ(result.steps[0].mean_vif, 0.0);
  EXPECT_GT(result.steps[1].mean_vif, 0.9);
}

TEST(Selection, CycleCounterInitializationStartsWithTotCyc) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 3;
  opt.init_with_cycle_counter = true;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  EXPECT_EQ(result.steps[0].event, pmc::Preset::TOT_CYC);
}

TEST(Selection, CycleCountersTieToRoundingAtFixedFrequency) {
  // Characterization, not a rule: at the selection campaign's fixed 2.4 GHz,
  // TOT_CYC and REF_CYC are exactly proportional, so their step-1 R² differ
  // only by rounding and the first pick between them is decided by it. The
  // test holds whichever of the two wins.
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions one;
  one.count = 1;
  const double tot =
      select_events(ds, {pmc::Preset::TOT_CYC}, one).steps[0].r_squared;
  const double ref =
      select_events(ds, {pmc::Preset::REF_CYC}, one).steps[0].r_squared;
  EXPECT_LT(std::fabs(tot - ref), 1e-12);
  const pmc::Preset first =
      select_events(ds, pmc::haswell_ep_available_events(), one).steps[0].event;
  EXPECT_TRUE(first == pmc::Preset::TOT_CYC || first == pmc::Preset::REF_CYC)
      << pmc::preset_name(first);
}

TEST(Selection, VifVetoKeepsMeanVifBounded) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  for (const SelectionStep& step : result.steps) {
    EXPECT_LE(step.mean_vif, 8.0);
  }
}

TEST(Selection, UnconstrainedEventuallyExplodesVif) {
  // The paper's CA_SNP dilemma: past the low-VIF prefix, greedy selection
  // adds collinear events and the mean VIF rises sharply.
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 8;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  double max_vif = 0;
  for (const SelectionStep& step : result.steps) {
    max_vif = std::max(max_vif, step.mean_vif);
  }
  EXPECT_GT(max_vif, 10.0);
}

TEST(Selection, RejectsBadArguments) {
  const Dataset ds = exact_dataset(16);
  SelectionOptions opt;
  opt.count = 5;
  EXPECT_THROW(select_events(ds, {pmc::Preset::PRF_DM}, opt), InvalidArgument);
  EXPECT_THROW(select_events(ds, {}, opt), InvalidArgument);
  opt.count = 1;
  opt.init_with_cycle_counter = true;
  EXPECT_THROW(select_events(ds, {pmc::Preset::PRF_DM}, opt), InvalidArgument);
}

TEST(Selection, MeanVifHelperMatchesRegressModule) {
  const Dataset ds = exact_dataset(60, 0.1);
  const std::vector<pmc::Preset> events{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  const double vif = selected_events_mean_vif(ds, events);
  EXPECT_GT(vif, 0.5);
  EXPECT_LT(vif, 5.0);  // independent uniform rates: no inflation
}

TEST(Selection, MeanVifMatrixOverloadMatchesDatasetOverload) {
  const Dataset ds = exact_dataset(60, 0.1);
  const std::vector<pmc::Preset> events{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  const la::Matrix rates = ds.event_rate_matrix(events);
  EXPECT_EQ(selected_events_mean_vif(rates), selected_events_mean_vif(ds, events));
  EXPECT_THROW(selected_events_mean_vif(la::Matrix(60, 1)), InvalidArgument);
}

namespace {

void expect_identical_selections(const SelectionResult& a, const SelectionResult& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].event, b.steps[i].event) << "step " << i;
    // Bit-identical, not merely close: the parallel pass only gates which
    // candidates reach the serial exact refit, so every reported number must
    // come out of the same arithmetic regardless of scan mode.
    EXPECT_EQ(a.steps[i].r_squared, b.steps[i].r_squared) << "step " << i;
    EXPECT_EQ(a.steps[i].adj_r_squared, b.steps[i].adj_r_squared) << "step " << i;
    EXPECT_EQ(a.steps[i].mean_vif, b.steps[i].mean_vif) << "step " << i;
  }
}

}  // namespace

TEST(Selection, ParallelScanMatchesSerialScan) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions serial;
  serial.count = 6;
  serial.parallel_scan = false;
  SelectionOptions parallel = serial;
  parallel.parallel_scan = true;
  const auto candidates = pmc::haswell_ep_available_events();
  expect_identical_selections(select_events(ds, candidates, serial),
                              select_events(ds, candidates, parallel));
}

TEST(Selection, ParallelScanMatchesSerialScanUnderVifVeto) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions serial;
  serial.count = 6;
  serial.max_mean_vif = 8.0;
  serial.parallel_scan = false;
  SelectionOptions parallel = serial;
  parallel.parallel_scan = true;
  const auto candidates = pmc::haswell_ep_available_events();
  expect_identical_selections(select_events(ds, candidates, serial),
                              select_events(ds, candidates, parallel));
}

TEST(Selection, EveryStepMatchesFromScratchOls) {
  // StepwiseOls promises that each trial reproduces fit_ols on the assembled
  // Eq. 1 design bit for bit. Check that promise end to end: every step's R²
  // equals a from-scratch fit on that prefix, and no remaining candidate's
  // from-scratch R² beats the pick. With the VIF veto on, candidates the veto
  // rejects are left out of the comparison.
  const Dataset& ds = acquire::standard_selection_dataset();
  const auto candidates = pmc::haswell_ep_available_events();
  const std::vector<double> power = ds.power();
  const auto from_scratch_r2 = [&](const std::vector<pmc::Preset>& events) {
    FeatureSpec spec;
    spec.events = events;
    return regress::fit_ols(build_features(ds, spec), power).r_squared;
  };
  for (const double max_mean_vif : {std::numeric_limits<double>::infinity(), 8.0}) {
    SCOPED_TRACE(max_mean_vif);
    SelectionOptions opt;
    opt.count = 6;
    opt.max_mean_vif = max_mean_vif;
    const SelectionResult result = select_events(ds, candidates, opt);
    ASSERT_EQ(result.steps.size(), opt.count);
    std::vector<pmc::Preset> prefix;
    std::size_t vetoed = 0;
    for (const SelectionStep& step : result.steps) {
      std::vector<pmc::Preset> with_pick = prefix;
      with_pick.push_back(step.event);
      EXPECT_EQ(step.r_squared, from_scratch_r2(with_pick))
          << "step " << prefix.size() << " " << pmc::preset_name(step.event);
      for (const pmc::Preset candidate : candidates) {
        if (std::find(with_pick.begin(), with_pick.end(), candidate) !=
            with_pick.end()) {
          continue;
        }
        std::vector<pmc::Preset> trial = prefix;
        trial.push_back(candidate);
        if (trial.size() >= 2 && selected_events_mean_vif(ds, trial) > max_mean_vif) {
          vetoed += 1;
          continue;
        }
        double r2 = 0.0;
        try {
          r2 = from_scratch_r2(trial);
        } catch (const NumericalError&) {
          continue;  // collinear with the prefix; Algorithm 1 skips it too
        }
        EXPECT_LE(r2, step.r_squared + 1e-12)
            << "step " << prefix.size() << ": " << pmc::preset_name(candidate)
            << " beats " << pmc::preset_name(step.event);
      }
      prefix = with_pick;
    }
    if (std::isfinite(max_mean_vif)) {
      EXPECT_GT(vetoed, 0u);  // the veto run must exercise the veto
    }
  }
}

// ---------------------------------------------------------------- validation

TEST(Validate, KFoldOnExactDataIsPerfect) {
  const Dataset ds = exact_dataset(100, 0.0);
  const CvSummary cv = k_fold_cross_validation(ds, exact_spec(), 10, 7);
  EXPECT_EQ(cv.folds.size(), 10u);
  EXPECT_GT(cv.min.r_squared, 0.999999);
  EXPECT_LT(cv.max.mape, 1e-4);
}

TEST(Validate, NoiseRaisesMapeAndLowersR2) {
  const Dataset clean = exact_dataset(100, 0.0);
  const Dataset noisy = exact_dataset(100, 5.0);
  const CvSummary cv_clean = k_fold_cross_validation(clean, exact_spec(), 5, 7);
  const CvSummary cv_noisy = k_fold_cross_validation(noisy, exact_spec(), 5, 7);
  EXPECT_GT(cv_noisy.mean.mape, cv_clean.mean.mape);
  EXPECT_LT(cv_noisy.mean.r_squared, cv_clean.mean.r_squared);
}

TEST(Validate, SummaryBoundsAreConsistent) {
  const Dataset ds = exact_dataset(100, 2.0);
  const CvSummary cv = k_fold_cross_validation(ds, exact_spec(), 10, 3);
  EXPECT_LE(cv.min.mape, cv.mean.mape);
  EXPECT_LE(cv.mean.mape, cv.max.mape);
  EXPECT_LE(cv.min.r_squared, cv.mean.r_squared);
  EXPECT_LE(cv.mean.r_squared, cv.max.r_squared);
}

TEST(Validate, DeterministicForSeed) {
  const Dataset ds = exact_dataset(100, 2.0);
  const CvSummary a = k_fold_cross_validation(ds, exact_spec(), 10, 3);
  const CvSummary b = k_fold_cross_validation(ds, exact_spec(), 10, 3);
  EXPECT_DOUBLE_EQ(a.mean.mape, b.mean.mape);
}

TEST(Validate, KFoldMatchesNaiveRefitLoop) {
  // Oracle: the same seeded folds, each training split refit independently
  // with fit_ols on its own Eq. 1 design, each held-out row scored by hand.
  const Dataset ds = exact_dataset(97, 3.0);
  const FeatureSpec spec = exact_spec();
  const std::size_t k = 10;
  const std::uint64_t seed = 21;
  const CvSummary cv = k_fold_cross_validation(ds, spec, k, seed);
  const std::vector<stats::Fold> folds = stats::k_fold_splits(ds.size(), k, seed);
  ASSERT_EQ(cv.folds.size(), folds.size());

  const auto expect_close = [](const FoldMetrics& got, const FoldMetrics& want) {
    EXPECT_NEAR(got.r_squared, want.r_squared, 1e-12 * std::abs(want.r_squared));
    EXPECT_NEAR(got.adj_r_squared, want.adj_r_squared,
                1e-12 * std::abs(want.adj_r_squared));
    EXPECT_NEAR(got.mape, want.mape, 1e-12 * std::abs(want.mape));
  };
  const double inf = std::numeric_limits<double>::infinity();
  FoldMetrics lo{inf, inf, inf};
  FoldMetrics hi{-inf, -inf, -inf};
  FoldMetrics sum;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const Dataset train = ds.select_rows(folds[f].train);
    const Dataset held = ds.select_rows(folds[f].validate);
    const regress::OlsResult fit =
        regress::fit_ols(build_features(train, spec), train.power());
    const la::Matrix x = build_features(held, spec);
    double ape = 0.0;
    for (std::size_t i = 0; i < held.size(); ++i) {
      double predicted = fit.beta[0];  // intercept
      for (std::size_t j = 0; j < x.cols(); ++j) {
        predicted += fit.beta[j + 1] * x(i, j);
      }
      const double actual = held.rows()[i].avg_power_watts;
      ape += std::abs((actual - predicted) / actual);
    }
    const FoldMetrics want{fit.r_squared, fit.adj_r_squared,
                           100.0 * ape / static_cast<double>(held.size())};
    SCOPED_TRACE("fold " + std::to_string(f));
    expect_close(cv.folds[f], want);
    lo = {std::min(lo.r_squared, want.r_squared),
          std::min(lo.adj_r_squared, want.adj_r_squared),
          std::min(lo.mape, want.mape)};
    hi = {std::max(hi.r_squared, want.r_squared),
          std::max(hi.adj_r_squared, want.adj_r_squared),
          std::max(hi.mape, want.mape)};
    sum = {sum.r_squared + want.r_squared,
           sum.adj_r_squared + want.adj_r_squared, sum.mape + want.mape};
  }
  const auto n = static_cast<double>(folds.size());
  expect_close(cv.min, lo);
  expect_close(cv.max, hi);
  expect_close(cv.mean,
               {sum.r_squared / n, sum.adj_r_squared / n, sum.mape / n});
}

// ---------------------------------------------------------------- scenarios

TEST(Scenario, SyntheticToSpecSplitsSuitesCorrectly) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_synthetic_to_spec(ds, exact_spec());
  for (const ScenarioPoint& p : result.points) {
    EXPECT_EQ(p.suite, workloads::Suite::SpecOmp);
  }
  EXPECT_GT(result.mape, 0.0);
}

TEST(Scenario, KfoldAllPredictsEveryRowExactlyOnce) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_kfold_all(ds, exact_spec(), 5, 11);
  EXPECT_EQ(result.points.size(), ds.size());
}

TEST(Scenario, KfoldSyntheticUsesOnlyRoco2) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_kfold_synthetic(ds, exact_spec(), 5, 11);
  for (const ScenarioPoint& p : result.points) {
    EXPECT_EQ(p.suite, workloads::Suite::Roco2);
  }
}

TEST(Scenario, RandomWorkloadsRespectsTrainCount) {
  const Dataset ds = exact_dataset(70, 0.5);
  const ScenarioResult result = scenario_random_workloads(ds, exact_spec(), 4, 17);
  // Validation covers the other 3 of the 7 synthetic workload labels.
  std::set<std::string> validated;
  for (const ScenarioPoint& p : result.points) {
    validated.insert(p.workload);
  }
  EXPECT_EQ(validated.size(), 3u);
}

TEST(Scenario, StratifiedDrawIncludesBothSuites) {
  const Dataset& train = acquire::standard_training_dataset();
  FeatureSpec spec;
  spec.events = {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS};
  for (std::uint64_t seed : {1, 2, 3}) {
    const ScenarioResult result = scenario_random_workloads(train, spec, 4, seed, 1);
    // Training had at least one of each suite, so validation cannot contain
    // all workloads of any suite.
    std::set<std::string> val_roco;
    std::set<std::string> val_spec;
    for (const ScenarioPoint& p : result.points) {
      (p.suite == workloads::Suite::Roco2 ? val_roco : val_spec).insert(p.workload);
    }
    EXPECT_LT(val_roco.size(), 11u) << seed;
    EXPECT_LT(val_spec.size(), 10u) << seed;
  }
}

TEST(Scenario, WorkloadMapeAndBias) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_kfold_all(ds, exact_spec(), 5, 11);
  const auto names = ds.workload_names();
  double weighted = 0;
  for (const auto& name : names) {
    EXPECT_GE(result.workload_mape(name), 0.0);
    weighted += result.workload_mape(name);
  }
  const auto bias = result.workload_bias();
  EXPECT_EQ(bias.size(), names.size());
  EXPECT_THROW(result.workload_mape("not_a_workload"), InvalidArgument);
}

// ---------------------------------------------------------------- pcc

TEST(Pcc, IdentifiesTheDrivingCounter) {
  const Dataset ds = exact_dataset(80, 0.1);
  const auto correlations =
      correlate_with_power(ds, {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC});
  // PRF_DM has coefficient 20 vs 5: it must correlate more strongly.
  EXPECT_GT(std::fabs(correlations[0].pcc), std::fabs(correlations[1].pcc) * 0.8);
  for (const auto& c : correlations) {
    EXPECT_GE(c.pcc, -1.0);
    EXPECT_LE(c.pcc, 1.0);
  }
}

// ---------------------------------------------------------------- model io

TEST(ModelIo, JsonRoundTripPredictsIdentically) {
  const Dataset ds = exact_dataset(64, 0.3);
  const PowerModel original = train_model(ds, exact_spec());
  const PowerModel loaded = model_from_json(model_to_json(original));
  const auto a = original.predict(ds);
  const auto b = loaded.predict(ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
  EXPECT_EQ(loaded.spec().events, original.spec().events);
  EXPECT_EQ(loaded.fit().cov_type, original.fit().cov_type);
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pwx_model_test.json").string();
  const Dataset ds = exact_dataset(64, 0.3);
  const PowerModel original = train_model(ds, exact_spec());
  save_model(original, path);
  const PowerModel loaded = load_model(path);
  EXPECT_NEAR(loaded.delta_z(), original.delta_z(), 1e-12);
  std::remove(path.c_str());
}

TEST(ModelIo, SaveIsAtomicAgainstPartialWrites) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pwx_model_atomic_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "model.json").string();
  const Dataset ds = exact_dataset(64, 0.3);
  const PowerModel original = train_model(ds, exact_spec());
  save_model(original, path);

  // The partial-write sweep: a torn file — any strict prefix of the payload,
  // as a crash mid-write would leave — must be rejected by load_model. This
  // is why save_model writes a temp file and rename()s: the target path can
  // only ever hold a complete payload.
  const std::string payload = model_to_json(original) + "\n";
  const std::string torn_path = (dir / "torn.json").string();
  for (const std::size_t len :
       {std::size_t{1}, payload.size() / 4, payload.size() / 2,
        payload.size() - 2}) {
    std::ofstream torn(torn_path, std::ios::trunc);
    torn.write(payload.data(), static_cast<std::streamsize>(len));
    torn.close();
    EXPECT_THROW(load_model(torn_path), IoError) << "prefix length " << len;
  }

  // Overwriting an existing model replaces it completely and leaves no temp
  // file behind on success.
  save_model(original, path);
  const PowerModel loaded = load_model(path);
  EXPECT_NEAR(loaded.delta_z(), original.delta_z(), 1e-12);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }

  // Failure before the rename leaves the previous file untouched: saving to
  // a directory path must throw without clobbering anything.
  EXPECT_THROW(save_model(original, dir.string()), IoError);
  EXPECT_NO_THROW(load_model(path));
  std::filesystem::remove_all(dir);
}

TEST(ModelIo, MalformedInputRejected) {
  EXPECT_THROW(model_from_json("not json"), IoError);
  EXPECT_THROW(model_from_json("{\"format\": \"other\"}"), IoError);
  EXPECT_THROW(load_model("/nonexistent/model.json"), IoError);
}

TEST(ModelIo, CoefficientCountValidated) {
  const Dataset ds = exact_dataset(64);
  const PowerModel model = train_model(ds, exact_spec());
  std::string json = model_to_json(model);
  // Drop one event from the spec: coefficient count no longer matches.
  const auto pos = json.find("\"PRF_DM\"");
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, std::string("\"PRF_DM\",").size());
  EXPECT_THROW(model_from_json(json), IoError);
}

// ---------------------------------------------------------------- estimator

TEST(Estimator, ReproducesModelPrediction) {
  const Dataset ds = exact_dataset(64);
  const PowerModel model = train_model(ds, exact_spec());
  OnlineEstimator estimator(model);

  const DataRow& row = ds.rows()[0];
  CounterSample sample;
  sample.elapsed_s = 2.0;
  sample.frequency_ghz = row.frequency_ghz;
  sample.voltage = row.avg_voltage;
  for (pmc::Preset p : model.spec().events) {
    sample.counts[p] = row.counter_rates.at(p) * sample.elapsed_s;
  }
  EXPECT_NEAR(estimator.estimate(sample), model.predict_row(row), 1e-9);
}

TEST(Estimator, SmoothingConvergesToSteadyState) {
  const Dataset ds = exact_dataset(64);
  const PowerModel model = train_model(ds, exact_spec());
  OnlineEstimator smooth(model, 0.8);

  const DataRow& row = ds.rows()[0];
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = row.frequency_ghz;
  sample.voltage = row.avg_voltage;
  for (pmc::Preset p : model.spec().events) {
    sample.counts[p] = row.counter_rates.at(p);
  }
  const double target = model.predict_row(row);
  double last = 0;
  for (int i = 0; i < 100; ++i) {
    last = smooth.estimate(sample);
  }
  EXPECT_NEAR(last, target, 1e-6);
  smooth.reset();
  EXPECT_NEAR(smooth.estimate(sample), target, 1e-9);  // first after reset is raw
}

TEST(Estimator, MissingEventRejected) {
  const Dataset ds = exact_dataset(64);
  OnlineEstimator estimator(train_model(ds, exact_spec()));
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = 2.4;
  sample.voltage = 0.9;
  sample.counts[pmc::Preset::PRF_DM] = 1e7;  // TOT_CYC missing
  EXPECT_THROW(estimator.estimate(sample), InvalidArgument);
}

TEST(Estimator, InvalidSampleRejected) {
  const Dataset ds = exact_dataset(64);
  OnlineEstimator estimator(train_model(ds, exact_spec()));
  CounterSample sample;
  sample.elapsed_s = 0.0;
  EXPECT_THROW(estimator.estimate(sample), InvalidArgument);
  EXPECT_THROW(OnlineEstimator(train_model(ds, exact_spec()), 1.5), InvalidArgument);

  // The strict path refuses exactly what try_predict refuses: a positive
  // but infinite voltage or a NaN count must throw, not return NaN/inf.
  CounterSample valid;
  valid.elapsed_s = 1.0;
  valid.frequency_ghz = 2.4;
  valid.voltage = 0.9;
  valid.counts[pmc::Preset::PRF_DM] = 1e9;
  valid.counts[pmc::Preset::TOT_CYC] = 2e9;
  const double good = estimator.estimate(valid);
  EXPECT_TRUE(std::isfinite(good));
  CounterSample inf_voltage = valid;
  inf_voltage.voltage = std::numeric_limits<double>::infinity();
  EXPECT_THROW(estimator.estimate(inf_voltage), InvalidArgument);
  CounterSample nan_count = valid;
  nan_count.counts[pmc::Preset::TOT_CYC] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(estimator.estimate(nan_count), InvalidArgument);
  const DenseSample dense = estimator.layout().to_dense(nan_count);
  EXPECT_THROW(estimator.estimate(dense), InvalidArgument);
  EXPECT_EQ(estimator.estimate(valid), good);
}

}  // namespace
}  // namespace pwx::core
