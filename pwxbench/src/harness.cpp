#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/rng.hpp"

namespace pwx::bench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics{
      {"op_user_ms", "ms"},
      {"model_mape_pct", "%"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics{
      {"sim.run_ms", "ms"},
      {"sim.intervals_per_s", "1/s"},
      {"sim.runs", "count"},
      {"trace.build_ms", "ms"},
      {"trace.profile_ms", "ms"},
      {"trace.ingest_ms", "ms"},
      {"trace.ingest_mb_per_s", "MB/s"},
      {"trace.files", "count"},
      {"trace.bytes", "bytes"},
      {"acquire.selection_campaign_s", "s"},
      {"acquire.training_campaign_s", "s"},
      {"acquire.rows", "count"},
      {"acquire.runs_rejected", "count"},
      {"acquire.configs_quarantined", "count"},
      {"selection.select_ms", "ms"},
      {"fit.train_ms", "ms"},
      {"validate.cv_ms", "ms"},
      {"validate.scenarios_ms", "ms"},
      {"estimate.ns_per_sample", "ns"},
      {"estimate.lanes_invalid", "count"},
      {"fleet.ingest_ns_per_sample", "ns"},
      {"fleet.snapshot_us", "us"},
      {"fleet.snapshot_p99_us", "us"},
      {"fleet.estimate_share", "ratio"},
      {"fleet.nodes_degraded", "count"},
      {"serve.split_ms", "ms"},
      {"serve.gate_ms", "ms"},
      {"obs.tracing_overhead_pct", "%"},
      {"calib.reference_ms", "ms"},
  };
  return metrics;
}

void Result::set(const std::string& name, double value) { values_[name] = value; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double host_steal_s() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) {
    return 0.0;
  }
  unsigned long long v[8] = {};
  const int read = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                               &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  const long ticks_per_s = sysconf(_SC_CLK_TCK);
  return read == 8 && ticks_per_s > 0
             ? static_cast<double>(v[7]) / static_cast<double>(ticks_per_s)
             : 0.0;
}

Clocks Clocks::now() {
  Clocks c;
  c.wall_s = now_s();
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  c.cpu_s = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  c.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec);
  return c;
}

std::vector<double> OpTimes::wall_s() const {
  std::vector<double> wall;
  for (const Clocks& op : ops_) {
    wall.push_back(op.wall_s);
  }
  return wall;
}

Clocks OpTimes::total() const {
  Clocks sum;
  for (const Clocks& op : ops_) {
    sum.wall_s += op.wall_s;
    sum.cpu_s += op.cpu_s;
    sum.user_s += op.user_s;
  }
  return sum;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double calibration_reference_ms() {
  // A dependent integer chain feeding a floating-point accumulation: fixed
  // work that no code change in the library can touch.
  constexpr std::size_t kSteps = std::size_t{1} << 21;
  std::vector<double> samples;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    const double start = now_s();
    std::uint64_t state = 0x243F6A8885A308D3ULL + static_cast<std::uint64_t>(rep);
    double acc = 0.0;
    for (std::size_t i = 0; i < kSteps; ++i) {
      const std::uint64_t r = splitmix64(state);
      acc += std::sqrt(static_cast<double>(r >> 11) + acc);
    }
    sink = sink + acc;
    samples.push_back((now_s() - start) * 1e3);
  }
  return median(samples);
}

OpTimes timed_setup(std::size_t repetitions, const std::function<void()>& setup) {
  OpTimes times;
  for (std::size_t i = 0; i < std::max<std::size_t>(repetitions, 1); ++i) {
    times.time(setup);
  }
  return times;
}

void set_op_metrics(Result& result, const OpTimes& ops, double tail_q,
                    const OpTimes& setup) {
  const double n = static_cast<double>(ops.size());
  const Clocks total = ops.total();
  std::vector<double> setup_user;
  for (const Clocks& s : setup.ops()) {
    setup_user.push_back(s.user_s);
  }
  result.set("op_user_ms", total.user_s / n * 1e3);
  result.set("setup_s", median(setup_user));
  result.set("peak_rss_mb", peak_rss_mb());
  // Recorded with the result, not bounded: these move with the load other
  // guests put on a shared host.
  result.context("ops", ops.size());
  result.context("op_wall_p50_ms", median(ops.wall_s()) * 1e3);
  result.context("op_wall_tail_ms", percentile(ops.wall_s(), tail_q) * 1e3);
  result.context("op_wall_tail_q", tail_q);
  result.context("op_cpu_mean_ms", total.cpu_s / n * 1e3);
  result.context("setup_wall_s", median(setup.wall_s()));
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    value ^= p[i];
    value *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

namespace {

constexpr std::string_view kBenchPrefix = "bench/";

std::string strip_bench_prefix(const std::string& name) {
  return name.starts_with(kBenchPrefix) ? name.substr(kBenchPrefix.size()) : name;
}

}  // namespace

void SpanLog::open(std::size_t ring_capacity) {
  obs::TracerConfig config;
  config.ring_capacity = ring_capacity;
  obs::tracer().start(config);
}

bool SpanLog::close() {
  obs::Tracer& tracer = obs::tracer();
  tracer.stop();
  const std::vector<obs::SpanRecord> records = tracer.drain();
  for (const obs::SpanAttribution& row : obs::attribute_latency(records)) {
    totals_[strip_bench_prefix(row.name)] += row.total_s;
  }
  for (const obs::SpanRecord& record : records) {
    if (record.name.starts_with(kBenchPrefix)) {
      durations_[strip_bench_prefix(record.name)].push_back(record.duration_s());
    }
  }
  return tracer.stats().spans_dropped == 0;
}

const std::vector<double>& SpanLog::durations(std::string_view name) const {
  static const std::vector<double> kEmpty;
  const auto it = durations_.find(name);
  return it == durations_.end() ? kEmpty : it->second;
}

double SpanLog::median_ms(std::string_view name) const {
  return median(durations(name)) * 1e3;
}

double SpanLog::total_s(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

double overhead_pct(const std::vector<double>& untraced,
                    const std::vector<double>& traced) {
  const double base = median(untraced);
  return (median(traced) - base) / base * 100.0;
}

}  // namespace pwx::bench
