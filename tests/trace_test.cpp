// Tests for the OTF2-lite trace layer: records, the columnar event store,
// serialization (the v4 writer, and the v2/v3 readers pinned by golden
// bytes), metric plugins, phase-profile post-processing, and batch campaign
// ingestion.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <tuple>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "trace/columns.hpp"
#include "trace/format.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/profile_campaign.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "trace_goldens.hpp"
#include "workloads/registry.hpp"

namespace pwx::trace {
namespace {

// ---------------------------------------------------------------- trace core

TEST(Trace, MetricDefinitionAndLookup) {
  Trace t;
  const auto idx = t.define_metric({"power", "W", MetricMode::AsyncAverage});
  EXPECT_EQ(t.metric_index("power"), idx);
  EXPECT_TRUE(t.has_metric("power"));
  EXPECT_FALSE(t.has_metric("nope"));
  EXPECT_THROW(t.metric_index("nope"), InvalidArgument);
}

TEST(Trace, DuplicateMetricNameRejected) {
  Trace t;
  t.define_metric({"power", "W", MetricMode::AsyncAverage});
  EXPECT_THROW(t.define_metric({"power", "W", MetricMode::AsyncAverage}),
               InvalidArgument);
}

TEST(Trace, ChronologicalOrderEnforced) {
  Trace t;
  t.append(RegionEnter{100, "x"});
  EXPECT_THROW(t.append(RegionExit{50, "x"}), InvalidArgument);
}

TEST(Trace, MetricEventMustReferenceDefinedMetric) {
  Trace t;
  EXPECT_THROW(t.append(MetricEvent{0, 3, 1.0}), InvalidArgument);
}

TEST(Trace, AttributeConversions) {
  Trace t;
  t.set_attribute("threads", 24.0);
  t.set_attribute("name", "compute");
  EXPECT_DOUBLE_EQ(t.attribute_as_double("threads"), 24.0);
  EXPECT_EQ(t.attribute("name"), "compute");
  EXPECT_THROW(t.attribute("missing"), InvalidArgument);
  EXPECT_THROW(t.attribute_as_double("name"), InvalidArgument);
}

// ---------------------------------------------------------------- serialization

TEST(Serialize, RoundTripPreservesEverything) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const Trace loaded = read_trace(buffer);

  EXPECT_EQ(loaded.attributes(), original.attributes());
  ASSERT_EQ(loaded.metrics().size(), original.metrics().size());
  for (std::size_t i = 0; i < loaded.metrics().size(); ++i) {
    EXPECT_EQ(loaded.metrics()[i].name, original.metrics()[i].name);
    EXPECT_EQ(loaded.metrics()[i].unit, original.metrics()[i].unit);
    EXPECT_EQ(loaded.metrics()[i].mode, original.metrics()[i].mode);
  }
  ASSERT_EQ(loaded.events().size(), original.events().size());
  for (std::size_t i = 0; i < loaded.events().size(); ++i) {
    EXPECT_EQ(Trace::event_time(loaded.events()[i]),
              Trace::event_time(original.events()[i]));
    EXPECT_EQ(loaded.events()[i].index(), original.events()[i].index());
  }
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "pwx_trace_test.otf2l";
  const Trace original = make_small_trace();
  write_trace_file(original, path);
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.events().size(), original.events().size());
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOTATRACE-----";
  EXPECT_THROW(read_trace(buffer), IoError);
}

TEST(Serialize, TruncatedStreamRejected) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_trace(truncated), IoError);
}

TEST(Serialize, CorruptedEventKindRejected) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  // The final event is RegionExit{t, "phase_a"}: kind(1) + time(8) +
  // length(4) + 7 characters = 20 bytes, followed by the 8-byte checksum
  // footer; flip the event's kind byte to garbage.
  data[data.size() - 28] = 99;
  std::stringstream corrupted(data);
  EXPECT_THROW(read_trace(corrupted), IoError);
}

TEST(Serialize, ChecksumCatchesPayloadBitFlip) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  // Flip one bit inside the last metric value's f64 payload — structurally
  // valid, so only the checksum can catch it.
  data[data.size() - 30] ^= 0x01;
  std::stringstream corrupted(data);
  EXPECT_THROW(read_trace(corrupted), IoError);
}

TEST(Serialize, IoErrorCarriesByteOffsetAndRecordIndex) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 12);  // cut into the final event
  std::stringstream truncated(data);
  try {
    read_trace(truncated);
    FAIL() << "truncated trace must not parse";
  } catch (const IoError& e) {
    EXPECT_GE(e.byte_offset(), 0);
    EXPECT_GE(e.record_index(), 0);
    EXPECT_EQ(e.code(), ErrorCode::Corruption);
  }
}

// Every truncation and every bit flip must surface as a typed IoError —
// read_trace may never return a silently partial Trace.
TEST(Serialize, CorruptionSweepAlwaysFailsTyped) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = 7;
  const auto workload = workloads::find_workload("md");
  const auto run = engine.run(*workload, rc);
  const Trace original = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  std::stringstream buffer;
  write_trace(original, buffer);
  const std::string data = buffer.str();
  ASSERT_GT(data.size(), 128u);

  for (std::size_t cut = 0; cut < data.size(); cut += 64) {
    std::string truncated = data.substr(0, cut);
    std::stringstream in(truncated);
    EXPECT_THROW(read_trace(in), IoError) << "truncation at byte " << cut;
  }
  for (std::size_t pos = 0; pos < data.size(); pos += 64) {
    std::string flipped = data;
    flipped[pos] ^= 0x10;
    std::stringstream in(flipped);
    EXPECT_THROW(read_trace(in), IoError) << "bit flip at byte " << pos;
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/file.otf2l"), IoError);
}

// ---------------------------------------------------------------- plugins

sim::RunResult quick_run(const char* workload_name = "compute") {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = 3;
  const auto workload = workloads::find_workload(workload_name);
  return engine.run(*workload, rc);
}

TEST(Plugins, StandardTraceHasPowerVoltageAndCounters) {
  const auto run = quick_run();
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC, pmc::Preset::PRF_DM});
  EXPECT_TRUE(t.has_metric("power"));
  EXPECT_TRUE(t.has_metric("core_voltage"));
  EXPECT_TRUE(t.has_metric("PAPI_TOT_CYC"));
  EXPECT_TRUE(t.has_metric("PAPI_PRF_DM"));
  EXPECT_FALSE(t.has_metric("PAPI_TLB_IM"));
  EXPECT_EQ(t.attribute("workload"), "compute");
  EXPECT_NEAR(t.attribute_as_double("frequency_ghz"), 2.4, 1e-9);
}

TEST(Plugins, EventCountMatchesIntervalsAndMetrics) {
  const auto run = quick_run();
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  // Per interval: power + voltage + 1 counter = 3 metric events; plus one
  // region enter and exit.
  EXPECT_EQ(t.events().size(), run.intervals.size() * 3 + 2);
}

TEST(Plugins, ApapiMetricNameUsesPapiPrefix) {
  EXPECT_EQ(ApapiPlugin::metric_name(pmc::Preset::BR_MSP), "PAPI_BR_MSP");
}

TEST(Plugins, ApapiRejectsEmptyEventSet) {
  EXPECT_THROW(ApapiPlugin({}), InvalidArgument);
}

TEST(Plugins, MultiPhaseRunProducesMultipleRegions) {
  const auto run = quick_run("md");
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  std::size_t enters = 0;
  for (const Event& e : t.events()) {
    enters += std::holds_alternative<RegionEnter>(e);
  }
  EXPECT_EQ(enters, 2u);  // md has two phases
}

// ---------------------------------------------------------------- phase profiles

TEST(PhaseProfile, AveragesAreTimeWeighted) {
  const Trace t = make_small_trace();
  const auto profiles = build_phase_profiles(t);
  ASSERT_EQ(profiles.size(), 1u);
  const PhaseProfile& p = profiles[0];
  EXPECT_EQ(p.workload, "unit");
  EXPECT_EQ(p.phase, "phase_a");
  EXPECT_DOUBLE_EQ(p.elapsed_s, 2.0);
  EXPECT_NEAR(p.avg_power_watts, 105.0, 1e-9);  // equal-length intervals
  EXPECT_NEAR(p.avg_voltage, 0.9, 1e-12);
  EXPECT_NEAR(p.rate(pmc::Preset::TOT_CYC), (5.0e9 + 5.2e9) / 2.0, 1.0);
  EXPECT_NEAR(p.rate_per_cycle(pmc::Preset::TOT_CYC), 5.1e9 / 2.4e9, 1e-6);
}

TEST(PhaseProfile, FromSimulatedRunMatchesIntervalAverages) {
  const auto run = quick_run();
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_INS});
  const auto profiles = build_phase_profiles(t);
  ASSERT_EQ(profiles.size(), 1u);
  double mean_p = 0;
  for (const auto& iv : run.intervals) {
    mean_p += iv.measured_power_watts;
  }
  mean_p /= static_cast<double>(run.intervals.size());
  EXPECT_NEAR(profiles[0].avg_power_watts, mean_p, 1e-6);
  EXPECT_EQ(profiles[0].threads, run.config.threads);
}

TEST(PhaseProfile, MissingCounterThrows) {
  const Trace t = make_small_trace();
  const auto profiles = build_phase_profiles(t);
  EXPECT_THROW(profiles[0].rate(pmc::Preset::PRF_DM), InvalidArgument);
  EXPECT_FALSE(profiles[0].has(pmc::Preset::PRF_DM));
  EXPECT_TRUE(profiles[0].has(pmc::Preset::TOT_CYC));
}

TEST(PhaseProfile, MultiPhaseTraceYieldsRowPerPhase) {
  const auto run = quick_run("md");
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  const auto profiles = build_phase_profiles(t);
  EXPECT_EQ(profiles.size(), 2u);
}

TEST(PhaseProfile, MergeAveragesPowerAndUnionsCounters) {
  PhaseProfile a;
  a.workload = "w";
  a.phase = "p";
  a.frequency_ghz = 2.4;
  a.threads = 4;
  a.elapsed_s = 1.0;
  a.avg_power_watts = 100.0;
  a.avg_voltage = 0.9;
  a.counter_rates[pmc::Preset::TOT_CYC] = 1e9;

  PhaseProfile b = a;
  b.elapsed_s = 3.0;
  b.avg_power_watts = 120.0;
  b.counter_rates.clear();
  b.counter_rates[pmc::Preset::PRF_DM] = 5e6;

  const PhaseProfile merged = merge_profiles({a, b});
  EXPECT_DOUBLE_EQ(merged.elapsed_s, 4.0);
  EXPECT_NEAR(merged.avg_power_watts, (100.0 * 1 + 120.0 * 3) / 4.0, 1e-9);
  // Counters recorded in only one run carry through with their own weight.
  EXPECT_DOUBLE_EQ(merged.rate(pmc::Preset::TOT_CYC), 1e9);
  EXPECT_DOUBLE_EQ(merged.rate(pmc::Preset::PRF_DM), 5e6);
  EXPECT_EQ(merged.runs_merged, 2u);
}

TEST(PhaseProfile, MergeRejectsMismatchedKeys) {
  PhaseProfile a;
  a.workload = "w";
  a.phase = "p";
  a.frequency_ghz = 2.4;
  a.threads = 4;
  a.elapsed_s = 1.0;
  PhaseProfile b = a;
  b.threads = 8;
  EXPECT_THROW(merge_profiles({a, b}), InvalidArgument);
  b = a;
  b.phase = "q";
  EXPECT_THROW(merge_profiles({a, b}), InvalidArgument);
}

TEST(PhaseProfile, MergeOfSingleProfileIsIdentity) {
  PhaseProfile a;
  a.workload = "w";
  a.phase = "p";
  a.frequency_ghz = 2.0;
  a.threads = 2;
  a.elapsed_s = 1.0;
  a.avg_power_watts = 50.0;
  const PhaseProfile merged = merge_profiles({a});
  EXPECT_DOUBLE_EQ(merged.avg_power_watts, 50.0);
  EXPECT_EQ(merged.runs_merged, 1u);
}

TEST(PhaseProfile, RepeatedRegionInstancesArePooled) {
  Trace t;
  t.set_attribute("workload", "w");
  t.set_attribute("frequency_ghz", 2.0);
  t.set_attribute("threads", 1.0);
  const auto power = t.define_metric({"power", "W", MetricMode::AsyncAverage});
  t.append(RegionEnter{0, "a"});
  t.append(MetricEvent{1000000000, power, 10.0});
  t.append(RegionExit{1000000000, "a"});
  t.append(RegionEnter{1000000000, "b"});
  t.append(MetricEvent{2000000000, power, 20.0});
  t.append(RegionExit{2000000000, "b"});
  t.append(RegionEnter{2000000000, "a"});
  t.append(MetricEvent{3000000000, power, 30.0});
  t.append(RegionExit{3000000000, "a"});
  const auto profiles = build_phase_profiles(t);
  ASSERT_EQ(profiles.size(), 2u);
  // Profiles sorted by name: "a" then "b".
  EXPECT_DOUBLE_EQ(profiles[0].elapsed_s, 2.0);
  EXPECT_NEAR(profiles[0].avg_power_watts, 20.0, 1e-9);  // (10+30)/2
  EXPECT_DOUBLE_EQ(profiles[1].elapsed_s, 1.0);
}

TEST(PhaseProfile, UnbalancedRegionsRejected) {
  Trace t;
  t.set_attribute("workload", "w");
  t.set_attribute("frequency_ghz", 2.0);
  t.set_attribute("threads", 1.0);
  t.append(RegionEnter{0, "a"});
  EXPECT_THROW(build_phase_profiles(t), InvalidArgument);
}

// ---------------------------------------------------------------- columnar store

/// Appends `count` random (but chronological and well-formed) events to `t`
/// and returns the same events as plain variant records.
std::vector<Event> append_random_events(Trace& t, std::size_t count,
                                        std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  std::uniform_int_distribution<std::uint64_t> dt_dist(0, 1000000);
  std::uniform_real_distribution<double> value_dist(-1e9, 1e9);
  const char* regions[] = {"alpha", "beta", "gamma"};
  const std::uint32_t metrics[] = {t.define_metric({"m0", "W", MetricMode::AsyncAverage}),
                                   t.define_metric({"m1", "V", MetricMode::AsyncInstant})};
  std::vector<Event> reference;
  std::uint64_t time = 0;
  for (std::size_t i = 0; i < count; ++i) {
    time += dt_dist(rng);
    switch (kind_dist(rng)) {
      case 0: {
        RegionEnter e{time, regions[i % 3]};
        t.append(e);
        reference.emplace_back(e);
        break;
      }
      case 1: {
        RegionExit e{time, regions[i % 3]};
        t.append(e);
        reference.emplace_back(e);
        break;
      }
      default: {
        MetricEvent e{time, metrics[i % 2], value_dist(rng)};
        t.append(e);
        reference.emplace_back(e);
        break;
      }
    }
  }
  return reference;
}

void expect_events_equal(const Trace& t, const std::vector<Event>& reference) {
  ASSERT_EQ(t.events().size(), reference.size());
  std::size_t i = 0;
  // Exercise the view's iterator and indexing simultaneously.
  for (const Event& event : t.events()) {
    ASSERT_EQ(event.index(), reference[i].index()) << "event " << i;
    const Event indexed = t.events()[i];
    ASSERT_EQ(indexed.index(), reference[i].index());
    if (const auto* enter = std::get_if<RegionEnter>(&event)) {
      EXPECT_EQ(enter->time_ns, std::get<RegionEnter>(reference[i]).time_ns);
      EXPECT_EQ(enter->region, std::get<RegionEnter>(reference[i]).region);
    } else if (const auto* exit = std::get_if<RegionExit>(&event)) {
      EXPECT_EQ(exit->time_ns, std::get<RegionExit>(reference[i]).time_ns);
      EXPECT_EQ(exit->region, std::get<RegionExit>(reference[i]).region);
    } else {
      const auto& metric = std::get<MetricEvent>(event);
      const auto& expected = std::get<MetricEvent>(reference[i]);
      EXPECT_EQ(metric.time_ns, expected.time_ns);
      EXPECT_EQ(metric.metric, expected.metric);
      EXPECT_EQ(metric.value, expected.value);
    }
    ++i;
  }
}

TEST(Columns, ViewMatchesAppendedVariantsOnRandomTraces) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    Trace t;
    const auto reference = append_random_events(t, 500, seed);
    expect_events_equal(t, reference);
    EXPECT_EQ(t.columns().size(), reference.size());
  }
}

TEST(Columns, EquivalenceSurvivesSerializationRoundTrip) {
  Trace t;
  t.set_attribute("workload", "rand");
  const auto reference = append_random_events(t, 300, 99);
  std::stringstream buffer;
  write_trace(t, buffer);
  const Trace loaded = read_trace(buffer);
  expect_events_equal(loaded, reference);
}

TEST(Columns, StringTableInternsAndLooksUp) {
  StringTable table;
  EXPECT_EQ(table.intern("a"), 0u);
  EXPECT_EQ(table.intern("b"), 1u);
  EXPECT_EQ(table.intern("a"), 0u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(1), "b");
  EXPECT_EQ(table.find("b"), std::optional<std::uint32_t>(1u));
  EXPECT_FALSE(table.find("c").has_value());
  EXPECT_THROW(table.at(2), InvalidArgument);
}

TEST(Columns, AdoptColumnsValidatesInvariants) {
  {  // chronology
    EventColumns c;
    c.push_enter(100, c.regions.intern("a"));
    c.push_exit(50, 0);
    Trace t;
    EXPECT_THROW(t.adopt_columns(std::move(c)), InvalidArgument);
  }
  {  // undefined metric id
    EventColumns c;
    c.push_metric(0, 7, 1.0);
    Trace t;
    EXPECT_THROW(t.adopt_columns(std::move(c)), InvalidArgument);
  }
  {  // unknown kind byte
    EventColumns c;
    c.push_enter(0, c.regions.intern("a"));
    c.kinds[0] = 42;
    Trace t;
    EXPECT_THROW(t.adopt_columns(std::move(c)), InvalidArgument);
  }
}

// ------------------------------------------------- v4 writer, v2/v3 readers

void expect_profiles_identical(const std::vector<PhaseProfile>& actual,
                               const std::vector<PhaseProfile>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].workload, expected[i].workload);
    EXPECT_EQ(actual[i].phase, expected[i].phase);
    EXPECT_EQ(actual[i].frequency_ghz, expected[i].frequency_ghz);
    EXPECT_EQ(actual[i].threads, expected[i].threads);
    EXPECT_EQ(actual[i].start_s, expected[i].start_s);
    EXPECT_EQ(actual[i].end_s, expected[i].end_s);
    EXPECT_EQ(actual[i].elapsed_s, expected[i].elapsed_s);
    EXPECT_EQ(actual[i].avg_power_watts, expected[i].avg_power_watts);
    EXPECT_EQ(actual[i].avg_voltage, expected[i].avg_voltage);
    EXPECT_EQ(actual[i].runs_merged, expected[i].runs_merged);
    EXPECT_EQ(actual[i].counter_rates, expected[i].counter_rates);  // exact doubles
  }
}

/// A legacy golden must decode to exactly make_small_trace(): attributes,
/// metric definitions, every event, and bit-identical phase profiles.
void expect_decodes_to_small_trace(const std::string& bytes) {
  std::stringstream in(bytes);
  const Trace loaded = read_trace(in);
  const Trace expected = make_small_trace();
  EXPECT_EQ(loaded.attributes(), expected.attributes());
  ASSERT_EQ(loaded.metrics().size(), expected.metrics().size());
  for (std::size_t i = 0; i < loaded.metrics().size(); ++i) {
    EXPECT_EQ(loaded.metrics()[i].name, expected.metrics()[i].name);
    EXPECT_EQ(loaded.metrics()[i].unit, expected.metrics()[i].unit);
    EXPECT_EQ(loaded.metrics()[i].mode, expected.metrics()[i].mode);
  }
  const EventColumns& got = loaded.columns();
  const EventColumns& want = expected.columns();
  EXPECT_EQ(got.times, want.times);
  EXPECT_EQ(got.kinds, want.kinds);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.values, want.values);  // exact doubles
  EXPECT_EQ(got.regions.names(), want.regions.names());

  expect_profiles_identical(build_phase_profiles(loaded), build_phase_profiles(expected));
}

/// Every truncation and every single-bit flip of `bytes` must fail typed: an
/// IoError with code Corruption and a byte offset, plus a record index once
/// a truncation cuts at or past `first_record_cut`.
void expect_every_byte_fails_typed(const std::string& bytes,
                                   std::size_t first_record_cut) {
  const auto check = [](const std::string& data, const std::string& what,
                        bool wants_record) {
    std::stringstream in(data);
    try {
      read_trace(in);
      ADD_FAILURE() << what << " must not parse";
    } catch (const IoError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Corruption) << what;
      EXPECT_GE(e.byte_offset(), 0) << what;
      if (wants_record) {
        EXPECT_GE(e.record_index(), 0) << what;
      }
    }
  };
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    check(bytes.substr(0, cut), "truncation at byte " + std::to_string(cut),
          cut >= first_record_cut);
  }
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      check(flipped,
            "flip of bit " + std::to_string(bit) + " at byte " + std::to_string(pos),
            false);
    }
  }
}

/// make_small_trace()'s eight events: enter and exit records carry the
/// 7-byte region name, metric records a u32 id and an f64 value.
constexpr std::size_t kSmallEvents = 8;
constexpr std::size_t kSmallV2RecordBytes = 2 * (1 + 8 + 4 + 7) + 6 * (1 + 8 + 4 + 8);

TEST(SerializeV2, RoundTripsThroughSharedReader) {
  expect_decodes_to_small_trace(golden_bytes(kGoldenV2));
}

// The decoded profile against a hand-computed value, not only against the
// fixture trace: (100 W + 110 W) / 2 over the phase's two 1 s intervals.
TEST(SerializeV2, GoldenBytesStayReadable) {
  std::stringstream in(golden_bytes(kGoldenV2));
  const auto profiles = build_phase_profiles(read_trace(in));
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_NEAR(profiles[0].avg_power_watts, 105.0, 1e-9);
}

// v4 is the only format written; its exact bytes are pinned like the legacy
// ones so a writer change can never slip through as a silent re-layout.
TEST(SerializeV2, WriterReproducesGoldenBytes) {
  std::ostringstream os;
  write_trace(make_small_trace(), os);
  EXPECT_EQ(os.str(), golden_bytes(kGoldenV4));
}

// The v2 reader is stream-based, so a cut reaches the event records right
// after the u64 event count: record bytes and the 8-byte footer follow it.
TEST(SerializeV2, CorruptionSweepAlwaysFailsTyped) {
  const std::string data = golden_bytes(kGoldenV2);
  expect_every_byte_fails_typed(data, data.size() - 8 - kSmallV2RecordBytes);
}

TEST(SerializeV3, GoldenBytesDecodeToSmallTrace) {
  expect_decodes_to_small_trace(golden_bytes(kGoldenV3));
}

// v3 ends in the u64 event count, the four columns, and the footer. The
// reader takes a truncated file's last 8 bytes as its footer, so a cut
// reaches the columns only 8 bytes past their first byte.
TEST(SerializeV3, CorruptionSweepAlwaysFailsTyped) {
  const std::string data = golden_bytes(kGoldenV3);
  const std::size_t columns_begin = data.size() - 8 - kSmallEvents * format::kEventBytes;
  expect_every_byte_fails_typed(data, columns_begin + 8);
}

TEST(Serialize, V4RoundTripIsBitIdentical) {
  const auto run = quick_run("md");
  const Trace original = build_standard_trace(run, {pmc::Preset::TOT_CYC,
                                                    pmc::Preset::PRF_DM});
  std::stringstream first;
  write_trace(original, first);
  std::stringstream in(first.str());
  const Trace loaded = read_trace(in);
  std::stringstream second;
  write_trace(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

// Every truncation of a v4 stream must carry a usable diagnosis: a byte
// offset always, and — when the cut lands inside the bulk event arrays — a
// non-negative record index (the first event that could not be recovered).
TEST(Serialize, V4TruncationSweepKeepsOffsetContract) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const std::string data = buffer.str();

  // The event section holds 8 events; its arrays occupy the last
  // 8*(8+1+4+8) bytes of the body before the checksum footer.
  const std::size_t arrays_begin = data.size() - 8 - 8 * 21;
  for (std::size_t cut = 9; cut < data.size(); cut += 7) {
    std::stringstream in(data.substr(0, cut));
    try {
      read_trace(in);
      FAIL() << "truncation at byte " << cut << " must not parse";
    } catch (const IoError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Corruption) << "cut " << cut;
      EXPECT_GE(e.byte_offset(), 0) << "cut " << cut;
      if (cut >= arrays_begin + 8) {
        EXPECT_GE(e.record_index(), 0) << "cut " << cut;
      }
    }
  }
}

// ---------------------------------------------------------------- profile campaign

/// Scratch directory for the campaign fixture. Each gtest case runs as its
/// own ctest process, so the name carries the pid to keep concurrent test
/// processes from rewriting each other's fixture files mid-read.
std::filesystem::path campaign_fixture_dir() {
  return std::filesystem::temp_directory_path() /
         ("pwx_trace_campaign_test_" + std::to_string(::getpid()));
}

/// A small multiplexed campaign fixture: two event groups per workload, so
/// batch ingestion has real cross-run merging to do.
const std::vector<std::string>& campaign_fixture_files() {
  static const std::vector<std::string> paths = [] {
    const sim::Engine engine = sim::Engine::haswell_ep();
    const char* names[] = {"md", "md", "compute", "compute", "matmul", "matmul"};
    const std::vector<pmc::Preset> groups[2] = {
        {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
        {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
    const auto dir = campaign_fixture_dir();
    std::filesystem::create_directories(dir);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < 6; ++i) {
      sim::RunConfig rc;
      rc.interval_s = 0.25;
      rc.duration_scale = 0.1;
      rc.seed = 40 + i;
      const auto workload = workloads::find_workload(names[i]);
      const Trace t =
          build_standard_trace(engine.run(*workload, rc), groups[i % 2]);
      const std::string path = (dir / ("t" + std::to_string(i) + ".otf2l")).string();
      write_trace_file(t, path);
      out.push_back(path);
    }
    return out;
  }();
  return paths;
}

/// The plain serial loop profile_trace_files must match bit for bit.
std::vector<PhaseProfile> serial_reference(const std::vector<std::string>& paths) {
  std::vector<std::vector<PhaseProfile>> groups;
  std::vector<PhaseProfile> keys;
  for (const std::string& path : paths) {
    for (PhaseProfile& p : build_phase_profiles(read_trace_file(path))) {
      std::size_t slot = keys.size();
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (keys[k].workload == p.workload && keys[k].phase == p.phase &&
            keys[k].frequency_ghz == p.frequency_ghz && keys[k].threads == p.threads) {
          slot = k;
          break;
        }
      }
      if (slot == keys.size()) {
        keys.push_back(p);
        groups.emplace_back();
      }
      groups[slot].push_back(std::move(p));
    }
  }
  std::vector<PhaseProfile> out;
  for (const auto& group : groups) {
    out.push_back(merge_profiles(group));
  }
  return out;
}

/// (OpenMP threads, mmap): the batch at 1 thread is the serial schedule, at
/// 4 and 16 the parallel one, each buffered and mapped.
struct ProfileCampaignEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ProfileCampaignEquivalence, BatchBitIdenticalToSerialLoop) {
  const auto [threads, mmap] = GetParam();
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  const auto& paths = campaign_fixture_files();
  ProfileCampaignOptions options;
  options.mmap = mmap;
  const auto batch = profile_trace_files(paths, options);
  const auto expected = serial_reference(paths);
  EXPECT_GT(batch.size(), 0u);
  expect_profiles_identical(batch, expected);
#ifdef _OPENMP
  omp_set_num_threads(0);  // restore the runtime default
#endif
}

INSTANTIATE_TEST_SUITE_P(ThreadAndParallelSweep, ProfileCampaignEquivalence,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Bool()));

TEST(ProfileCampaign, MergesMultiplexedGroupsAcrossRuns) {
  const auto profiles = profile_trace_files(campaign_fixture_files());
  // 3 workloads; md has two phases -> 4 merged rows, each covering 2 runs
  // and carrying all four multiplexed counters.
  ASSERT_EQ(profiles.size(), 4u);
  for (const PhaseProfile& p : profiles) {
    EXPECT_EQ(p.runs_merged, 2u);
    EXPECT_TRUE(p.has(pmc::Preset::TOT_CYC));
    EXPECT_TRUE(p.has(pmc::Preset::PRF_DM));
  }
}

// The per-file step keeps one unmerged row per run phase and reports how
// the bytes arrived.
TEST(ProfileCampaign, NoMergeKeepsPerRunRows) {
  std::size_t rows = 0;
  for (const std::string& path : campaign_fixture_files()) {
    const std::size_t size = std::filesystem::file_size(path);
    const TraceFileProfiles buffered = profile_trace_file(path);
    EXPECT_EQ(buffered.bytes_copied, size);
    EXPECT_EQ(buffered.bytes_mapped, 0u);
    const TraceFileProfiles mapped = profile_trace_file(path, {.mmap = true});
    EXPECT_EQ(mapped.bytes_mapped, size);
    EXPECT_EQ(mapped.bytes_copied, 0u);
    expect_profiles_identical(mapped.profiles, buffered.profiles);
    for (const PhaseProfile& p : buffered.profiles) {
      EXPECT_EQ(p.runs_merged, 1u);
    }
    rows += buffered.profiles.size();
  }
  // md twice (2 phases each) + compute twice + matmul twice = 8 rows.
  EXPECT_EQ(rows, 8u);
}

TEST(ProfileCampaign, ErrorCarriesOffendingPath) {
  auto paths = campaign_fixture_files();
  paths.insert(paths.begin() + 1, "/nonexistent/missing.otf2l");
  try {
    profile_trace_files(paths);
    FAIL() << "missing file must throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("missing.otf2l"), std::string::npos);
  }
}

TEST(ProfileCampaign, CorruptFileSurfacesTypedError) {
  auto paths = campaign_fixture_files();
  // Write a corrupted copy of the first trace and splice it in.
  std::ifstream in(paths[0], std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string data = ss.str();
  data[data.size() / 2] ^= 0x04;
  const auto bad = campaign_fixture_dir() / "bad.otf2l";
  {
    std::ofstream out(bad, std::ios::binary);
    out << data;
  }
  paths.push_back(bad.string());
  try {
    profile_trace_files(paths);
    FAIL() << "corrupt file must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corruption);
    EXPECT_NE(std::string(e.what()).find("bad.otf2l"), std::string::npos);
  }
}

}  // namespace
}  // namespace pwx::trace
