// Scoped pipeline spans: the one instrumentation mechanism behind both
// "where did the time go?" views.
//
//   void run() {
//     PWX_SPAN("campaign.run_campaign");
//     ...
//     for (...) { PWX_SPAN("campaign.unit"); ... }
//   }
//
// A span is a scope in the causal trace (obs/trace.hpp): while a Tracer
// session or the flight recorder is active, it becomes a SpanRecord with
// trace/span/parent linkage and start/end timestamps. Both views are
// reductions over drained records in obs/trace_export:
//
//   * span_path_profile — per-path call count and total/min/max seconds,
//     where a span's path is its parent chain on its own thread
//     ("campaign.run_campaign/campaign.unit"); rendered as an indented table
//     or JSON, e.g. by pwx-monitor --spans.
//   * attribute_latency — per-name total and self time.
//
// Overhead: with no session and no flight recorder a span costs two
// out-of-line calls (constructor and destructor, defined in obs/trace.cpp),
// one relaxed load and one branch; no clock is read and nothing is locked.
// Spans are for pipeline stages (runs, folds, selection steps), not
// per-sample hot paths.
#pragma once

#include <string_view>

#include "obs/metrics.hpp"

namespace pwx::obs {

/// RAII trace scope. Whether the scope is traced is decided at construction,
/// so starting or stopping a session mid-scope never unbalances the
/// thread's parent stack.
class Span {
public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  bool traced_ = false;  ///< balanced trace_detail frame pushed
};

/// Monotonic wall clock in seconds (steady_clock); the time base all obs
/// timings share.
double monotonic_s();

/// RAII duration recorder into a Histogram, for sites that want a latency
/// distribution rather than a trace scope. Inactive (one branch each way, no
/// clock read) while telemetry is disabled.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram& histogram) : histogram_(histogram) {
    if (enabled()) {
      active_ = true;
      start_s_ = monotonic_s();
    }
  }
  ~ScopedTimer() {
    if (active_) {
      histogram_.observe(monotonic_s() - start_s_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
  Histogram& histogram_;
  bool active_ = false;
  double start_s_ = 0.0;
};

}  // namespace pwx::obs

#define PWX_OBS_CONCAT2(a, b) a##b
#define PWX_OBS_CONCAT(a, b) PWX_OBS_CONCAT2(a, b)
/// Trace the enclosing scope as an obs span.
#define PWX_SPAN(name) ::pwx::obs::Span PWX_OBS_CONCAT(pwx_obs_span_, __LINE__)(name)
