// Tests for the ground-truth power generator and the sensor model.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/ground_truth.hpp"
#include "power/sensor.hpp"

namespace pwx::power {
namespace {

SocketActivity busy_socket(double frequency_ghz = 2.4, std::size_t cores = 12) {
  SocketActivity a;
  a.duration_s = 1.0;
  a.frequency_ghz = frequency_ghz;
  a.voltage = 1.0;
  a.active_cores = cores;
  a.total_cores = 12;
  const double cycles = frequency_ghz * 1e9 * static_cast<double>(cores);
  a.counts.cycles = cycles;
  a.counts.instructions = 2.0 * cycles;
  a.counts.load_ins = 0.5 * cycles;
  a.counts.store_ins = 0.2 * cycles;
  a.uops = 2.2 * cycles;
  return a;
}

// ---------------------------------------------------------------- ground truth

TEST(GroundTruth, NativesReadAreTheCountsThatMovePower) {
  // Doubling a read native (from a nonzero value) moves the power; changing
  // an unread one leaves its bits alone.
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  const pmc::NativeSet read = GroundTruthPower::natives_read();
  EXPECT_NE(read, pmc::NativeSet{0});
  SocketActivity base = busy_socket();
  auto values = std::bit_cast<std::array<double, pmc::kNativeCount>>(base.counts);
  for (double& v : values) {
    v = v == 0.0 ? 1e9 : v;
  }
  base.counts = std::bit_cast<pmc::ActivityCounts>(values);
  const double watts = truth.socket_input_watts(base);
  for (std::size_t n = 0; n < pmc::kNativeCount; ++n) {
    auto changed = values;
    changed[n] *= 2.0;
    SocketActivity a = base;
    a.counts = std::bit_cast<pmc::ActivityCounts>(changed);
    const double moved = truth.socket_input_watts(a);
    if (((read >> n) & 1) != 0) {
      EXPECT_NE(moved, watts) << "native " << n;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(moved), std::bit_cast<std::uint64_t>(watts))
          << "native " << n;
    }
  }
}

TEST(GroundTruth, IdleSocketInPlausibleRange) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity idle;
  idle.duration_s = 1.0;
  idle.frequency_ghz = 2.4;
  idle.voltage = 1.0;
  idle.active_cores = 0;
  idle.total_cores = 12;
  const double watts = truth.socket_input_watts(idle);
  EXPECT_GT(watts, 20.0);
  EXPECT_LT(watts, 50.0);
}

TEST(GroundTruth, LoadedSocketInPlausibleRange) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  const double watts = truth.socket_input_watts(busy_socket());
  EXPECT_GT(watts, 70.0);
  EXPECT_LT(watts, 160.0);  // TDP-ish envelope
}

TEST(GroundTruth, PowerIncreasesWithActivity) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity low = busy_socket();
  SocketActivity high = busy_socket();
  high.counts.instructions *= 2;
  high.uops *= 2;
  EXPECT_GT(truth.socket_input_watts(high), truth.socket_input_watts(low));
}

TEST(GroundTruth, DynamicPowerScalesWithVSquared) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity a = busy_socket();
  a.voltage = 0.8;
  const PowerBreakdown lo = truth.socket_power(a);
  a.voltage = 1.0;
  const PowerBreakdown hi = truth.socket_power(a);
  EXPECT_NEAR(hi.core_dynamic / lo.core_dynamic, 1.0 / 0.64, 1e-9);
}

TEST(GroundTruth, LeakageGrowsWithTemperatureFeedback) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity cold = busy_socket();
  cold.counts.instructions *= 0.1;
  cold.uops *= 0.1;
  const PowerBreakdown pb_cold = truth.socket_power(cold);
  const PowerBreakdown pb_hot = truth.socket_power(busy_socket());
  EXPECT_GT(pb_hot.die_temperature_c, pb_cold.die_temperature_c);
  EXPECT_GT(pb_hot.core_leakage, pb_cold.core_leakage);
}

TEST(GroundTruth, IdleCoresLeakLessThanActiveOnes) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity all_active = busy_socket(2.4, 12);
  SocketActivity one_active = busy_socket(2.4, 1);
  // Same per-core activity: leakage of mostly-gated socket must be lower.
  one_active.counts *= 1.0 / 12.0;
  one_active.uops /= 12.0;
  const PowerBreakdown pa = truth.socket_power(all_active);
  const PowerBreakdown pb = truth.socket_power(one_active);
  EXPECT_GT(pa.core_leakage, pb.core_leakage);
}

TEST(GroundTruth, HiddenDynamicRespondsToAvxAndUops) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity base = busy_socket();
  SocketActivity avx = base;
  avx.avx256_instructions = 0.8 * base.counts.instructions;
  EXPECT_GT(truth.socket_power(avx).hidden_dynamic,
            truth.socket_power(base).hidden_dynamic);
}

TEST(GroundTruth, DynamicScaleMultipliesCoreDynamic) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity a = busy_socket();
  const PowerBreakdown p1 = truth.socket_power(a);
  a.dynamic_scale = 1.1;
  const PowerBreakdown p2 = truth.socket_power(a);
  EXPECT_NEAR(p2.core_dynamic / p1.core_dynamic, 1.1, 1e-9);
  EXPECT_NEAR(p2.hidden_dynamic / p1.hidden_dynamic, 1.1, 1e-9);
  EXPECT_DOUBLE_EQ(p2.uncore_static, p1.uncore_static);
}

TEST(GroundTruth, BaselineOffsetAddsDirectlyToInputPower) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity a = busy_socket();
  const double p1 = truth.socket_input_watts(a);
  a.baseline_offset_watts = 5.0;
  const double p2 = truth.socket_input_watts(a);
  EXPECT_NEAR(p2 - p1, 5.0, 1e-9);
}

TEST(GroundTruth, VrEfficiencyInPlausibleBandAndMonotone) {
  EXPECT_GT(GroundTruthPower::vr_efficiency(10.0), 0.80);
  EXPECT_LT(GroundTruthPower::vr_efficiency(10.0), 0.90);
  EXPECT_GT(GroundTruthPower::vr_efficiency(150.0),
            GroundTruthPower::vr_efficiency(20.0));
  EXPECT_LT(GroundTruthPower::vr_efficiency(1000.0), 0.90);
}

TEST(GroundTruth, InputPowerExceedsPackagePower) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  const PowerBreakdown pb = truth.socket_power(busy_socket());
  EXPECT_GT(truth.input_watts(pb), pb.package_total());
}

TEST(GroundTruth, BreakdownComponentsAreNonNegative) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  const PowerBreakdown pb = truth.socket_power(busy_socket());
  EXPECT_GE(pb.core_dynamic, 0.0);
  EXPECT_GE(pb.hidden_dynamic, 0.0);
  EXPECT_GE(pb.uncore_dynamic, 0.0);
  EXPECT_GE(pb.core_leakage, 0.0);
  EXPECT_GE(pb.uncore_static, 0.0);
}

TEST(GroundTruth, RejectsBadInputs) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity a = busy_socket();
  a.duration_s = 0.0;
  EXPECT_THROW(truth.socket_power(a), InvalidArgument);
  a = busy_socket();
  a.voltage = 0.0;
  EXPECT_THROW(truth.socket_power(a), InvalidArgument);
}

TEST(GroundTruth, UncoreDynamicFollowsMemoryTraffic) {
  const GroundTruthPower truth = GroundTruthPower::haswell_ep();
  SocketActivity quiet = busy_socket();
  SocketActivity memory = busy_socket();
  memory.counts.l3_data_read = 1e9;
  memory.counts.l3_total_miss = 5e8;
  memory.counts.prefetch_miss = 8e8;
  memory.dram_bytes = 3e10;
  EXPECT_GT(truth.socket_power(memory).uncore_dynamic,
            truth.socket_power(quiet).uncore_dynamic + 3.0);
}

// ---------------------------------------------------------------- sensor

TEST(Sensor, AverageConvergesToCalibratedTruth) {
  SensorSpec spec;
  const PowerSensor sensor(spec, 77);
  Rng rng(1);
  // Long interval → noise averages out, leaving gain/offset only.
  const double reading = sensor.average(100.0, 1000.0, rng);
  EXPECT_NEAR(reading, sensor.gain() * 100.0 + sensor.offset_watts(), 0.1);
}

TEST(Sensor, CalibrationResidualsAreSmall) {
  SensorSpec spec;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const PowerSensor sensor(spec, seed);
    EXPECT_NEAR(sensor.gain(), 1.0, 0.03) << seed;
    EXPECT_NEAR(sensor.offset_watts(), 0.0, 1.5) << seed;
  }
}

TEST(Sensor, SampleCountMatchesRateAndDuration) {
  SensorSpec spec;
  spec.sample_rate_hz = 100.0;
  const PowerSensor sensor(spec, 5);
  Rng rng(2);
  EXPECT_EQ(sensor.sample(50.0, 2.0, rng).size(), 200u);
  EXPECT_EQ(sensor.sample(50.0, 0.001, rng).size(), 1u);  // at least one
}

TEST(Sensor, SampleNoiseMatchesSpec) {
  SensorSpec spec;
  spec.noise_floor_watts = 0.5;
  spec.noise_relative = 0.0;
  spec.gain_error_sigma = 0.0;
  spec.offset_error_sigma_watts = 0.0;
  const PowerSensor sensor(spec, 9);
  Rng rng(3);
  const auto samples = sensor.sample(100.0, 100.0, rng);
  double sum = 0;
  double sum2 = 0;
  for (double s : samples) {
    sum += s;
    sum2 += (s - 100.0) * (s - 100.0);
  }
  EXPECT_NEAR(sum / samples.size(), 100.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / samples.size()), 0.5, 0.05);
}

TEST(Sensor, AverageNoiseShrinksWithDuration) {
  SensorSpec spec;
  spec.gain_error_sigma = 0.0;
  spec.offset_error_sigma_watts = 0.0;
  const PowerSensor sensor(spec, 10);
  auto spread = [&](double duration) {
    Rng rng(4);
    double m2 = 0;
    for (int i = 0; i < 500; ++i) {
      const double r = sensor.average(100.0, duration, rng) - 100.0;
      m2 += r * r;
    }
    return std::sqrt(m2 / 500);
  };
  EXPECT_GT(spread(0.01), 2.0 * spread(1.0));
}

TEST(Sensor, SameSeedSameCalibration) {
  SensorSpec spec;
  const PowerSensor a(spec, 42);
  const PowerSensor b(spec, 42);
  EXPECT_DOUBLE_EQ(a.gain(), b.gain());
  EXPECT_DOUBLE_EQ(a.offset_watts(), b.offset_watts());
}

TEST(Sensor, RejectsNonPositiveDuration) {
  const PowerSensor sensor(SensorSpec{}, 1);
  Rng rng(5);
  EXPECT_THROW(sensor.sample(10.0, 0.0, rng), InvalidArgument);
}

}  // namespace
}  // namespace pwx::power
