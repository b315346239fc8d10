// Column pool behind the selection algorithms.
//
// Algorithm 1 fits one model per remaining candidate per step. Before this
// engine existed every such trial rebuilt its feature matrix from Dataset's
// per-row std::map lookups and refactorized the design from scratch. The
// engine extracts everything the trials need exactly once per selection call:
//
//   * per-candidate feature columns  E_n·V²f  (normalization-dependent),
//   * the base columns V²f and V and the power target y,
//   * per-candidate per-cycle rate columns E_n — the space in which the
//     paper's mean-VIF stability metric lives (always per-cycle, regardless
//     of the feature normalization).
//
// Trials then run on contiguous cached columns; the mean-VIF veto slices the
// cached rate columns and computes all VIFs from a single QR (vif_all_qr)
// instead of one auxiliary regression per selected event per check.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "acquire/dataset.hpp"
#include "core/features.hpp"
#include "la/matrix.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

class SelectionColumnPool {
public:
  SelectionColumnPool(const acquire::Dataset& dataset,
                      const std::vector<pmc::Preset>& candidates,
                      RateNormalization normalization);

  std::size_t rows() const { return rows_; }
  std::size_t candidate_count() const { return events_.size(); }
  const std::vector<pmc::Preset>& events() const { return events_; }

  /// Feature column of candidate i: rate·V²f, length rows().
  std::span<const double> feature_column(std::size_t i) const {
    return {features_.data() + i * rows_, rows_};
  }

  /// All candidate feature columns as one contiguous column-major block
  /// (candidate i at [i·rows(), (i+1)·rows())) — the layout
  /// StepwiseOls::register_candidates expects.
  std::span<const double> feature_columns() const { return features_; }

  /// Per-cycle rate column of candidate i (the VIF space), length rows().
  std::span<const double> rate_column(std::size_t i) const {
    return {rates_.data() + i * rows_, rows_};
  }

  /// The m x 2 matrix [V²f, V] — the fixed trailing columns of Equation 1's
  /// design (the OLS intercept supplies δ·Z).
  const la::Matrix& base_features() const { return base_; }

  /// Regression target (average power per row).
  std::span<const double> power() const { return power_; }

  /// Mean VIF of the per-cycle rates of a candidate subset (indices into
  /// events(), in selection order), from the cached rate columns — no
  /// Dataset access. Subset size must be >= 2.
  double mean_vif(std::span<const std::size_t> subset) const;

  /// The cached rate columns of a subset as a matrix (rows() x subset size),
  /// identical to Dataset::event_rate_matrix over the same presets.
  la::Matrix rate_matrix(std::span<const std::size_t> subset) const;

private:
  std::size_t rows_ = 0;
  std::vector<pmc::Preset> events_;
  std::vector<double> features_;  ///< column-major, candidate i at [i·m, (i+1)·m)
  std::vector<double> rates_;     ///< column-major per-cycle rates
  la::Matrix base_;
  std::vector<double> power_;
};

}  // namespace pwx::core
