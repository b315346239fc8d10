#include "core/selection_engine.hpp"

#include "common/error.hpp"
#include "regress/vif.hpp"

namespace pwx::core {

SelectionColumnPool::SelectionColumnPool(const acquire::Dataset& dataset,
                                         const std::vector<pmc::Preset>& candidates,
                                         RateNormalization normalization)
    : rows_(dataset.size()), events_(candidates) {
  PWX_REQUIRE(!dataset.empty(), "cannot build a column pool from an empty dataset");
  const std::size_t m = rows_;
  const std::size_t c = events_.size();
  features_.resize(c * m);
  rates_.resize(c * m);
  base_ = la::Matrix(m, 2);
  power_.resize(m);

  for (std::size_t r = 0; r < m; ++r) {
    const acquire::DataRow& row = dataset.rows()[r];
    PWX_REQUIRE(row.avg_voltage > 0.0, "row ", row.workload, "/", row.phase,
                " lacks a voltage measurement");
    const double v = row.avg_voltage;
    const double f = row.frequency_ghz;
    const double v2f = v * v * f;
    base_(r, 0) = v2f;
    base_(r, 1) = v;
    power_[r] = row.avg_power_watts;
    for (std::size_t i = 0; i < c; ++i) {
      // Same arithmetic as features.cpp's fill_row, so pooled columns equal
      // build_features output bit for bit.
      double rate = 0.0;
      switch (normalization) {
        case RateNormalization::PerCycle:
          rate = row.rate_per_cycle(events_[i]);
          break;
        case RateNormalization::PerSecond:
          rate = row.counter_rates.at(events_[i]) / 1e9;
          break;
      }
      features_[i * m + r] = rate * v2f;
      rates_[i * m + r] = row.rate_per_cycle(events_[i]);
    }
  }
}

la::Matrix SelectionColumnPool::rate_matrix(std::span<const std::size_t> subset) const {
  la::Matrix out(rows_, subset.size());
  for (std::size_t c = 0; c < subset.size(); ++c) {
    PWX_REQUIRE(subset[c] < events_.size(), "candidate index ", subset[c],
                " out of range");
    const std::span<const double> col = rate_column(subset[c]);
    for (std::size_t r = 0; r < rows_; ++r) {
      out(r, c) = col[r];
    }
  }
  return out;
}

double SelectionColumnPool::mean_vif(std::span<const std::size_t> subset) const {
  PWX_REQUIRE(subset.size() >= 2, "mean VIF needs at least two events");
  return regress::mean_vif_qr(rate_matrix(subset));
}

}  // namespace pwx::core
