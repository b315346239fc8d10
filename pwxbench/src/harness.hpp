// Shared machinery of the end-to-end benchmark: arguments, the result that
// becomes the final JSON line, closed-loop timing helpers, and the
// benchmark-side span log that turns traced runs into per-layer metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "acquire/dataset.hpp"
#include "common/json.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace pwx::bench {

/// Command-line arguments (see main.cpp for the syntax).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes for the benchmark's own tests; the output checks still run.
  bool smoke = false;
  /// Test hook: name of one output to corrupt before its check runs, so a
  /// test can prove the check fails the command ("" = none).
  std::string perturb;
  std::string source_rev = "unknown";
};

struct Metric {
  std::string name;
  std::string unit;
};

/// The metrics every run reports, in print order. Every workload reports
/// every end-to-end metric. A per-layer metric of a layer that is not on a
/// workload's path reads 0 in that workload's traced run.
const std::vector<Metric>& end_to_end_metrics();
const std::vector<Metric>& per_layer_metrics();

/// Everything a workload reports. The end-to-end metrics are printed by an
/// untraced run, the per-layer metrics by a traced one.
class Result {
public:
  /// Record one output check; a failed check makes the command fail.
  void check(bool ok, const std::string& what);
  /// Set a metric declared in end_to_end_metrics() or per_layer_metrics().
  void set(const std::string& name, double value);
  /// Free-form provenance (digests, sizes) printed on the context line.
  void context(const std::string& key, Json value) { context_[key] = std::move(value); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& values() const { return values_; }
  const Json::Object& context() const { return context_; }

private:
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  Json::Object context_;
};

/// Monotonic wall clock in seconds.
double now_s();

/// Time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run, summed over CPUs (the steal column of /proc/stat); 0 when
/// the machine does not report it.
double host_steal_s();

/// One reading of the three clocks an operation is timed with.
struct Clocks {
  double wall_s = 0.0;  ///< monotonic wall clock
  double cpu_s = 0.0;   ///< process CPU time, all threads, user + kernel
  double user_s = 0.0;  ///< process user-mode CPU time, all threads

  static Clocks now();
  Clocks operator-(const Clocks& start) const {
    return {wall_s - start.wall_s, cpu_s - start.cpu_s, user_s - start.user_s};
  }
};

/// The clocks of a series of timed operations.
///
/// On a shared host the wall clock stretches with the time the hypervisor
/// gives to other guests, and the kernel part of the CPU time moves with it
/// too. The user-mode CPU time of the process, with idle OpenMP workers
/// sleeping, counts the computation an operation needs and moved least
/// between runs, so the bounded metrics are built on it.
class OpTimes {
public:
  template <class F>
  decltype(auto) time(F&& op) {
    struct Record {
      OpTimes& times;
      Clocks start;
      ~Record() { times.add(Clocks::now() - start); }
    } record{*this, Clocks::now()};
    return op();
  }
  void add(const Clocks& elapsed) { ops_.push_back(elapsed); }

  std::size_t size() const { return ops_.size(); }
  const std::vector<Clocks>& ops() const { return ops_; }
  std::vector<double> wall_s() const;
  Clocks total() const;

private:
  std::vector<Clocks> ops_;
};

/// Nearest-rank percentile (q in [0, 100]) of `values`; NaN when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Median wall time of a fixed integer/floating-point reference loop, in ms.
/// Recorded with every result so machine drift can be told from code drift.
double calibration_reference_ms();

/// Run `setup` `repetitions` times and return their times; the state the
/// last call built is what the workload keeps.
OpTimes timed_setup(std::size_t repetitions, const std::function<void()>& setup);

/// Set the shared end-to-end metrics of a workload from its untraced
/// operations and its set-up times, and record the wall-clock figures
/// (`tail_q`: the tail percentile the workload has enough operations for).
void set_op_metrics(Result& result, const OpTimes& ops, double tail_q,
                    const OpTimes& setup);

/// FNV-1a accumulation over raw bytes and over the bit pattern of doubles.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() const;
};

/// Benchmark-side spans. While a session is open, obs::Span scopes named
/// "bench/<layer metric>" around public layer calls are recorded by the
/// process tracer (together with the library's own spans); close() drains
/// them, folds them with obs::attribute_latency and keeps the per-call
/// durations of the benchmark's spans for medians.
class SpanLog {
public:
  /// Start a tracer session with room for `ring_capacity` spans per thread.
  void open(std::size_t ring_capacity);
  /// Stop the session and fold its spans. Returns false when spans were
  /// dropped (the per-layer numbers of that session would be incomplete).
  bool close();

  /// Per-call durations (seconds) of one benchmark span, in record order.
  /// Benchmark spans are looked up without their "bench/" prefix.
  const std::vector<double>& durations(std::string_view name) const;
  double median_ms(std::string_view name) const;
  /// Summed duration (seconds) of any span name, benchmark or library,
  /// over all closed sessions.
  double total_s(std::string_view name) const;

private:
  std::map<std::string, std::vector<double>, std::less<>> durations_;
  std::map<std::string, double, std::less<>> totals_;
};

/// Tracing overhead in percent: how much slower the traced median of an
/// operation is than its untraced median, measured in the same process.
double overhead_pct(const std::vector<double>& untraced,
                    const std::vector<double>& traced);

/// Digest of every field of every row, in row order.
std::string dataset_digest(const acquire::Dataset& dataset);
/// Digest of a model's events and fitted coefficients.
std::string model_digest(const core::PowerModel& model);

/// The paper's model as model_build makes it, without the validation: the
/// standard selection and training campaigns for `seed`, Algorithm 1 with
/// the VIF veto (6 events, mean VIF <= 8) and the HC3 fit of Equation 1.
struct StandardModel {
  acquire::Dataset selection;
  acquire::Dataset training;
  core::SelectionResult selected;
  core::PowerModel model;
};
StandardModel train_standard_model(std::uint64_t seed);

/// Workload entry points. Each runs its set-up, a closed loop for
/// args.seconds, and its output checks, filling `result`.
void run_model_build(const Args& args, Result& result);
void run_fleet_serve(const Args& args, Result& result);
void run_corpus_refresh(const Args& args, Result& result);

}  // namespace pwx::bench
