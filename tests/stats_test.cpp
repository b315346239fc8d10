// Unit and property tests for the statistics module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/metrics.hpp"

namespace pwx::stats {
namespace {

// ---------------------------------------------------------------- descriptive

TEST(Descriptive, MeanVarianceKnownValues) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(population_variance(v), 4.0, 1e-12);
  EXPECT_NEAR(variance(v), 4.0 * 8.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(v), std::sqrt(variance(v)), 1e-12);
}

TEST(Descriptive, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), InvalidArgument);
  EXPECT_THROW(min(empty), InvalidArgument);
  EXPECT_THROW(max(empty), InvalidArgument);
  EXPECT_THROW(median(empty), InvalidArgument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(variance(one), InvalidArgument);
}

TEST(Descriptive, MinMaxMedian) {
  const std::vector<double> v{3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(min(v), 1.0);
  EXPECT_DOUBLE_EQ(max(v), 5.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Descriptive, MedianOfEvenCountInterpolates) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Descriptive, QuantileEndpointsAndMidpoints) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30.0);
  EXPECT_THROW(quantile(v, 1.5), InvalidArgument);
}

TEST(Descriptive, KahanSumBeatsNaiveOnIllConditionedInput) {
  // 1 + 1e-16 added 1e6 times: naive summation loses the small terms.
  std::vector<double> v;
  v.push_back(1.0);
  for (int i = 0; i < 1000000; ++i) {
    v.push_back(1e-16);
  }
  const double s = kahan_sum(v);
  EXPECT_NEAR(s, 1.0 + 1e-10, 1e-14);
}

TEST(Descriptive, SummaryFields) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Descriptive, SummaryOfEmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

// ---------------------------------------------------------------- correlation

TEST(Correlation, PerfectPositiveAndNegative) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  const std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Correlation, InvariantToAffineTransform) {
  Rng rng(5);
  std::vector<double> x(100);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x[i] = rng.normal();
    y[i] = 0.5 * x[i] + rng.normal();
  }
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < 100; ++i) {
    xs[i] = 3.0 * x[i] - 7.0;
  }
  EXPECT_NEAR(pearson(x, y), pearson(xs, y), 1e-12);
}

TEST(Correlation, ZeroVarianceGivesZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Correlation, IndependentSamplesNearZero) {
  Rng rng(6);
  std::vector<double> x(20000);
  std::vector<double> y(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Correlation, SpearmanDetectsMonotoneNonlinear) {
  std::vector<double> x(50);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = std::exp(0.1 * x[i]);  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Correlation, SpearmanHandlesTies) {
  const std::vector<double> x{1, 2, 2, 3};
  const std::vector<double> y{1, 2, 2, 3};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Correlation, CovarianceKnownValue) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> y{2, 4, 6};
  EXPECT_NEAR(covariance(x, y), 2.0, 1e-12);  // var(x)=1, cov = 2*var
}

TEST(Correlation, SizeMismatchThrows) {
  const std::vector<double> x{1, 2};
  const std::vector<double> y{1};
  EXPECT_THROW(pearson(x, y), InvalidArgument);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, MapeKnownValue) {
  const std::vector<double> actual{100, 200};
  const std::vector<double> predicted{110, 180};
  EXPECT_NEAR(mape(actual, predicted), 10.0, 1e-12);  // (10% + 10%) / 2
}

TEST(Metrics, MapeRejectsZeroActual) {
  const std::vector<double> actual{0.0};
  const std::vector<double> predicted{1.0};
  EXPECT_THROW(mape(actual, predicted), InvalidArgument);
}

TEST(Metrics, MaxApePicksWorstCase) {
  const std::vector<double> actual{100, 100, 100};
  const std::vector<double> predicted{101, 130, 95};
  EXPECT_NEAR(max_ape(actual, predicted), 30.0, 1e-12);
}

TEST(Metrics, MaeAndRmseKnownValues) {
  const std::vector<double> actual{0, 0, 0, 0};
  const std::vector<double> predicted{1, -1, 3, -3};
  EXPECT_DOUBLE_EQ(mae(actual, predicted), 2.0);
  EXPECT_NEAR(rmse(actual, predicted), std::sqrt(5.0), 1e-12);
}

TEST(Metrics, BiasSign) {
  const std::vector<double> actual{10, 10};
  const std::vector<double> over{12, 12};
  const std::vector<double> under{9, 9};
  EXPECT_GT(bias(actual, over), 0.0);
  EXPECT_LT(bias(actual, under), 0.0);
}

TEST(Metrics, RSquaredPerfectAndMeanPredictor) {
  const std::vector<double> actual{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r_squared(actual, actual), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r_squared(actual, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, RSquaredCanBeNegative) {
  const std::vector<double> actual{1, 2, 3};
  const std::vector<double> terrible{10, -10, 30};
  EXPECT_LT(r_squared(actual, terrible), 0.0);
}

// ---------------------------------------------------------------- kfold

class KFoldProperty : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(KFoldProperty, PartitionIsExactAndBalanced) {
  const auto [n, k] = GetParam();
  const auto folds = k_fold_splits(n, k, 42);
  ASSERT_EQ(folds.size(), k);
  std::set<std::size_t> all_validation;
  for (const Fold& fold : folds) {
    // Balanced within one element.
    EXPECT_LE(fold.validate.size(), (n + k - 1) / k);
    EXPECT_GE(fold.validate.size(), n / k);
    EXPECT_EQ(fold.train.size() + fold.validate.size(), n);
    for (std::size_t idx : fold.validate) {
      EXPECT_TRUE(all_validation.insert(idx).second) << "index in two folds";
    }
    // Train and validate are disjoint.
    std::set<std::size_t> train_set(fold.train.begin(), fold.train.end());
    for (std::size_t idx : fold.validate) {
      EXPECT_EQ(train_set.count(idx), 0u);
    }
  }
  EXPECT_EQ(all_validation.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KFoldProperty,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{10, 2},
                                           std::pair<std::size_t, std::size_t>{10, 10},
                                           std::pair<std::size_t, std::size_t>{97, 10},
                                           std::pair<std::size_t, std::size_t>{100, 3},
                                           std::pair<std::size_t, std::size_t>{560, 10}));

TEST(KFold, SameSeedSameSplits) {
  const auto a = k_fold_splits(50, 5, 7);
  const auto b = k_fold_splits(50, 5, 7);
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(a[f].validate, b[f].validate);
  }
}

TEST(KFold, DifferentSeedsDifferentSplits) {
  const auto a = k_fold_splits(50, 5, 7);
  const auto b = k_fold_splits(50, 5, 8);
  bool any_diff = false;
  for (std::size_t f = 0; f < 5; ++f) {
    any_diff = any_diff || (a[f].validate != b[f].validate);
  }
  EXPECT_TRUE(any_diff);
}

TEST(KFold, InvalidParametersThrow) {
  EXPECT_THROW(k_fold_splits(5, 1, 0), InvalidArgument);
  EXPECT_THROW(k_fold_splits(5, 6, 0), InvalidArgument);
}

TEST(KFold, EmptyDatasetThrows) {
  EXPECT_THROW(k_fold_splits(0, 2, 0), InvalidArgument);
  EXPECT_THROW(k_fold_splits(0, 10, 0), InvalidArgument);
  EXPECT_THROW(grouped_k_fold_splits({}, 2, 0), InvalidArgument);
}

TEST(KFold, MoreFoldsThanSamplesThrows) {
  EXPECT_THROW(k_fold_splits(3, 10, 0), InvalidArgument);
}

TEST(KFold, GroupedKeepsGroupsTogether) {
  // 12 rows in 4 groups of 3.
  std::vector<std::size_t> groups;
  for (std::size_t g = 0; g < 4; ++g) {
    for (int i = 0; i < 3; ++i) {
      groups.push_back(g);
    }
  }
  const auto folds = grouped_k_fold_splits(groups, 2, 9);
  for (const Fold& fold : folds) {
    std::set<std::size_t> val_groups;
    for (std::size_t idx : fold.validate) {
      val_groups.insert(groups[idx]);
    }
    // Every group in the validation set must be complete.
    for (std::size_t g : val_groups) {
      std::size_t members = 0;
      for (std::size_t idx : fold.validate) {
        members += (groups[idx] == g);
      }
      EXPECT_EQ(members, 3u);
    }
  }
}

TEST(KFold, GroupedRejectsTooManyFolds) {
  const std::vector<std::size_t> groups{0, 0, 1, 1};
  EXPECT_THROW(grouped_k_fold_splits(groups, 3, 0), InvalidArgument);
}

// Golden vectors captured from the concatenate-and-sort train-set builder
// before it was replaced by the linear complement pass: identical seeds must
// keep producing identical splits, train sets included.
TEST(KFold, GoldenSplitsAreStable) {
  const auto folds = k_fold_splits(12, 3, 42);
  ASSERT_EQ(folds.size(), 3u);
  const std::vector<std::vector<std::size_t>> validate{
      {0, 1, 8, 9}, {2, 4, 7, 11}, {3, 5, 6, 10}};
  const std::vector<std::vector<std::size_t>> train{
      {2, 3, 4, 5, 6, 7, 10, 11},
      {0, 1, 3, 5, 6, 8, 9, 10},
      {0, 1, 2, 4, 7, 8, 9, 11}};
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(folds[f].validate, validate[f]) << "fold " << f;
    EXPECT_EQ(folds[f].train, train[f]) << "fold " << f;
  }
}

TEST(KFold, GroupedGoldenSplitsAreStable) {
  const std::vector<std::size_t> groups{0, 0, 1, 1, 2, 2, 3, 3, 4, 4};
  const auto folds = grouped_k_fold_splits(groups, 2, 9);
  ASSERT_EQ(folds.size(), 2u);
  const std::vector<std::size_t> validate0{0, 1, 4, 5, 6, 7};
  const std::vector<std::size_t> train0{2, 3, 8, 9};
  EXPECT_EQ(folds[0].validate, validate0);
  EXPECT_EQ(folds[0].train, train0);
  EXPECT_EQ(folds[1].validate, train0);
  EXPECT_EQ(folds[1].train, validate0);
}

}  // namespace
}  // namespace pwx::stats
