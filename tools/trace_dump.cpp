// pwx-trace-dump — inspect OTF2-lite trace files.
//
// Usage:
//   pwx-trace-dump <trace.otf2l>                 # summary + phase profiles
//   pwx-trace-dump <trace.otf2l> --events [N]    # raw event stream (first N)
//   pwx-trace-dump <trace.otf2l> --csv           # metric samples as CSV
//   pwx-trace-dump <trace.otf2l> --json          # summary + profiles as JSON
//   pwx-trace-dump <trace.otf2l> --profile       # full phase-profile table
//   pwx-trace-dump <trace.otf2l> --stat          # section table + I/O stats
//
// `--mmap` (combinable with any mode) ingests through the zero-copy mapped
// reader instead of the buffered one; --stat always does. Archived v2/v3
// files (read-only formats; the library writes v4) fall back to the buffered
// reader transparently, which --stat reports as "buffered" with the copied
// byte count.
//
// Exit codes: 0 ok, 1 generic error, 2 usage (also an unknown mode word or a
// non-numeric --events N), 3 corrupt/truncated trace (the IoError
// diagnosis — byte offset and record index — goes to stderr).
//
// The post-processing path is exactly the library's phase-profile builder,
// so what this tool prints is what the modeling pipeline consumes.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "trace/format.hpp"
#include "trace/mapped.hpp"
#include "trace/phase_profile.hpp"
#include "trace/serialize.hpp"
#include "trace/view.hpp"

namespace {

using namespace pwx;

/// Attribute pairs sorted by key (the attribute map itself is unordered).
std::vector<std::pair<std::string, std::string>> sorted_attributes(const trace::Trace& t) {
  std::vector<std::pair<std::string, std::string>> attrs(t.attributes().begin(),
                                                         t.attributes().end());
  std::sort(attrs.begin(), attrs.end());
  return attrs;
}

int print_summary(const trace::Trace& t) {
  std::puts("attributes:");
  for (const auto& [key, value] : sorted_attributes(t)) {
    std::printf("  %-16s %s\n", key.c_str(), value.c_str());
  }
  std::printf("\nmetrics (%zu):\n", t.metrics().size());
  for (const trace::MetricDefinition& m : t.metrics()) {
    const char* mode = m.mode == trace::MetricMode::AsyncAverage    ? "async-avg"
                       : m.mode == trace::MetricMode::AsyncInstant  ? "async-inst"
                                                                    : "counter";
    std::printf("  %-24s [%s] %s\n", m.name.c_str(), m.unit.c_str(), mode);
  }
  std::printf("\nevents: %zu\n\n", t.events().size());

  std::puts("phase profiles:");
  TablePrinter table({"phase", "elapsed [s]", "avg power [W]", "avg V", "#counters"});
  for (const trace::PhaseProfile& p : trace::build_phase_profiles(t)) {
    table.row({p.phase, format_double(p.elapsed_s, 2),
               format_double(p.avg_power_watts, 1), format_double(p.avg_voltage, 3),
               std::to_string(p.counter_rates.size())});
  }
  table.print(std::cout);
  return 0;
}

int print_events(const trace::Trace& t, std::size_t limit) {
  std::size_t n = 0;
  for (const trace::Event& event : t.events()) {
    if (n++ >= limit) {
      std::printf("... (%zu more events)\n", t.events().size() - limit);
      break;
    }
    if (const auto* enter = std::get_if<trace::RegionEnter>(&event)) {
      std::printf("%12.6f  ENTER  %s\n", units::ns_to_s(enter->time_ns),
                  enter->region.c_str());
    } else if (const auto* exit = std::get_if<trace::RegionExit>(&event)) {
      std::printf("%12.6f  LEAVE  %s\n", units::ns_to_s(exit->time_ns),
                  exit->region.c_str());
    } else {
      const auto& metric = std::get<trace::MetricEvent>(event);
      std::printf("%12.6f  METRIC %-24s %g\n", units::ns_to_s(metric.time_ns),
                  t.metrics()[metric.metric].name.c_str(), metric.value);
    }
  }
  return 0;
}

int print_json(const trace::Trace& t) {
  Json out;
  for (const auto& [key, value] : t.attributes()) {
    out["attributes"][key] = value;
  }
  Json::Array metrics;
  for (const trace::MetricDefinition& m : t.metrics()) {
    Json metric;
    metric["name"] = m.name;
    metric["unit"] = m.unit;
    metric["mode"] = m.mode == trace::MetricMode::AsyncAverage    ? "async-avg"
                     : m.mode == trace::MetricMode::AsyncInstant  ? "async-inst"
                                                                  : "counter";
    metrics.push_back(std::move(metric));
  }
  out["metrics"] = std::move(metrics);
  out["events"] = t.events().size();
  Json::Array profiles;
  for (const trace::PhaseProfile& p : trace::build_phase_profiles(t)) {
    Json profile;
    profile["phase"] = p.phase;
    profile["elapsed_s"] = p.elapsed_s;
    profile["avg_power_watts"] = p.avg_power_watts;
    profile["avg_voltage"] = p.avg_voltage;
    for (const auto& [preset, rate] : p.counter_rates) {
      profile["counter_rates"][std::string(pmc::preset_name(preset))] = rate;
    }
    profiles.push_back(std::move(profile));
  }
  out["phase_profiles"] = std::move(profiles);
  std::cout << out.dump() << "\n";
  return 0;
}

/// --profile: the full phase-profile table the modeling pipeline consumes —
/// one row per phase with its identification, plus every counter rate. The
/// profiles come from the same columnar single-pass scan the library uses
/// (callers pass the scan's output so mapped and buffered ingestion share
/// this printer).
int print_profiles(const std::vector<trace::PhaseProfile>& profiles) {
  TablePrinter table({"workload", "phase", "f [GHz]", "threads", "elapsed [s]",
                      "avg power [W]", "avg V"});
  for (const trace::PhaseProfile& p : profiles) {
    table.row({p.workload, p.phase, format_double(p.frequency_ghz, 2),
               std::to_string(p.threads), format_double(p.elapsed_s, 3),
               format_double(p.avg_power_watts, 2), format_double(p.avg_voltage, 3)});
  }
  table.print(std::cout);

  std::puts("\ncounter rates:");
  TablePrinter rates({"phase", "counter", "rate [1/s]", "per cycle"});
  for (const trace::PhaseProfile& p : profiles) {
    for (const auto& [preset, rate] : p.counter_rates) {
      rates.row({p.phase, std::string(pmc::preset_name(preset)),
                 format_double(rate, 1),
                 format_double(p.rate_per_cycle(preset), 6)});
    }
  }
  rates.print(std::cout);
  return 0;
}

/// --stat: how the file was ingested — format generation, zero-copy vs
/// buffered, byte accounting, and (for mapped v4 files) the validated
/// section table with absolute offsets and padded sizes.
int print_stat(const trace::MappedTraceFile& file) {
  std::printf("format:          OTF2LTv%d\n", file.format_version());
  std::printf("ingestion:       %s\n", file.mapped() ? "mapped (zero-copy)" : "buffered");
  std::printf("bytes mapped:    %zu\n", file.bytes_mapped());
  std::printf("bytes copied:    %zu\n", file.bytes_copied());
  std::printf("checksum:        %s\n",
              file.checksum_verified() ? "verified" : "deferred");
  std::printf("events:          %zu\n", file.view().columns.size());
  if (!file.sections().empty()) {
    std::puts("\nsections:");
    TablePrinter table({"id", "name", "offset", "size [B]"});
    static const char* kNames[] = {"attributes", "metrics", "regions", "events"};
    for (const trace::format::SectionInfo& s : file.sections()) {
      table.row({std::to_string(s.id),
                 s.id >= 1 && s.id <= 4 ? kNames[s.id - 1] : "?",
                 std::to_string(s.file_offset), std::to_string(s.size)});
    }
    table.print(std::cout);
  }
  return 0;
}

int print_csv(const trace::Trace& t) {
  CsvWriter csv(std::cout);
  csv.header({"time_s", "metric", "value"});
  for (const trace::Event& event : t.events()) {
    if (const auto* metric = std::get_if<trace::MetricEvent>(&event)) {
      csv.row({format_double(units::ns_to_s(metric->time_ns), 6),
               t.metrics()[metric->metric].name,
               format_double(metric->value, 6)});
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Split args into the path, one mode word, and the --mmap toggle.
  const char* path = nullptr;
  std::vector<const char*> mode_args;
  bool use_mmap = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mmap") == 0) {
      use_mmap = true;
    } else if (path == nullptr && argv[i][0] != '-') {
      path = argv[i];
    } else {
      mode_args.push_back(argv[i]);
    }
  }
  const auto mode = [&](const char* flag) {
    return !mode_args.empty() && std::strcmp(mode_args[0], flag) == 0;
  };
  // At most one known mode word; only --events takes a value, its limit.
  const bool known_mode = mode_args.empty() || mode("--events") || mode("--csv") ||
                          mode("--json") || mode("--profile") || mode("--stat");
  const std::size_t max_args = mode("--events") ? 2 : 1;
  std::optional<std::uint64_t> event_limit = 50;
  if (mode("--events") && mode_args.size() == 2) {
    event_limit = pwx::parse_u64(mode_args[1]);
  }
  if (path == nullptr || !known_mode || mode_args.size() > max_args || !event_limit) {
    std::fprintf(stderr,
                 "usage: %s <trace.otf2l> [--mmap] "
                 "[--events [N] | --csv | --json | --profile | --stat]\n",
                 argv[0]);
    return 2;
  }
  try {
    if (mode("--stat")) {
      return print_stat(pwx::trace::MappedTraceFile::open(path));
    }
    if (use_mmap && mode("--profile")) {
      // The fully zero-copy route: profiles straight off the mapped view.
      const auto file = pwx::trace::MappedTraceFile::open(path);
      return print_profiles(pwx::trace::build_phase_profiles(file.view()));
    }
    // The record-oriented printers below want an owned Trace; with --mmap
    // the bytes still arrive through the mapped reader (exercising the same
    // parser and fallback the pipeline uses) before being materialized.
    const pwx::trace::Trace t =
        use_mmap ? pwx::trace::to_trace(pwx::trace::MappedTraceFile::open(path).view())
                 : pwx::trace::read_trace_file(path);
    if (mode("--events")) {
      return print_events(t, static_cast<std::size_t>(*event_limit));
    }
    if (mode("--csv")) {
      return print_csv(t);
    }
    if (mode("--json")) {
      return print_json(t);
    }
    if (mode("--profile")) {
      return print_profiles(pwx::trace::build_phase_profiles(t));
    }
    return print_summary(t);
  } catch (const pwx::IoError& e) {
    std::fprintf(stderr, "corrupt trace: %s\n", e.what());
    if (e.byte_offset() >= 0) {
      std::fprintf(stderr, "  byte offset:  %lld\n",
                   static_cast<long long>(e.byte_offset()));
    }
    if (e.record_index() >= 0) {
      std::fprintf(stderr, "  record index: %lld\n",
                   static_cast<long long>(e.record_index()));
    }
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
