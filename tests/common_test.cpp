// Unit tests for the common module: RNG, strings, CSV, JSON, tables, errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <set>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace pwx {
namespace {

// ---------------------------------------------------------------- error

TEST(Error, RequireThrowsInvalidArgumentWithMessage) {
  try {
    PWX_REQUIRE(1 == 2, "got ", 42);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("got 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckThrowsPwxError) {
  EXPECT_THROW(PWX_CHECK(false, "boom"), Error);
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

// ---------------------------------------------------------------- rng

/// Oracle for Rng::lognormal: the textbook draw exp(log(mean) − σ²/2 + σz)
/// with σ² = log(1 + cv²), which Rng evaluates as mean·exp(σz − σ²/2).
double lognormal_oracle(double mean, double cv, double z) {
  const double sigma2 = std::log(1.0 + cv * cv);
  return std::exp(std::log(mean) - 0.5 * sigma2 + std::sqrt(sigma2) * z);
}

/// First 64 normal() outputs of Rng(0x5EED) from Box–Muller with the libm
/// sin and cos of 2πu.
constexpr double kNormalGolden[64] = {
    0x1.ba55da98753c7p+0, -0x1.91b750132025bp+0, 0x1.e93f88ae63679p+0,
    -0x1.39c02765f5f13p-2, -0x1.7fd2da8172e7dp+0, -0x1.085c5df2c5104p-2,
    -0x1.81a798c656489p-1, 0x1.9a5ffb3eb5e71p-2, -0x1.6d4b14eefa509p-3,
    -0x1.b819dce5d2e8bp+0, -0x1.21c1c90864a6ap-2, -0x1.1a55636201e8p-1,
    -0x1.d687e75847ed5p-2, 0x1.28f7982c83725p+0, 0x1.831e73413b112p-6,
    0x1.5e9eb4faf9e5ap+0, -0x1.471724cfe4c16p+0, -0x1.a6c514ddc54c8p-4,
    0x1.5868c0a0d38bp-4, -0x1.adfd4784dd53fp-1, -0x1.e3b3cdb7d772cp-1,
    0x1.2ba82aa6db147p-2, 0x1.141ee4da4cbcep-4, -0x1.28e23472d06fdp-3,
    0x1.1f42331f2e431p-4, -0x1.903a3830dc54fp-5, 0x1.893bde6b20e0cp+0,
    0x1.7ac78293321c9p+0, -0x1.5c49bf07bdbap-6, 0x1.a905442077cfap-1,
    -0x1.23b16e7e68087p+0, -0x1.e7b7ae8fedcf5p-1, 0x1.5978671a27d84p-3,
    0x1.c9af0edb21ae4p+0, -0x1.7f7abd5d283efp-2, 0x1.04938001f8a1ep+0,
    0x1.c7924c6b291fep-4, -0x1.3a05e49aa9db8p+1, 0x1.e71158ed06fa5p-2,
    0x1.b15fa0cbe17d2p-1, 0x1.d30022a077757p+0, -0x1.1918cbfa7229ap-2,
    -0x1.60f70463720a2p+0, 0x1.b8cf9f03f74a3p+0, -0x1.1383767b5b7c7p-2,
    0x1.446379f81e458p+0, 0x1.5eacfb5446022p-10, -0x1.51592649a7d75p-1,
    0x1.8fcf4bc819fcp-2, 0x1.07acc683a5dedp-3, -0x1.ed6bf7ac64faep-1,
    -0x1.2579b7785cce6p+0, 0x1.81fa3c4f74e31p+0, -0x1.162adaec25cf3p-1,
    0x1.276ced55821b8p-1, -0x1.3196a8d5ab407p+1, -0x1.7d46949eb348ep-6,
    0x1.0c7addfd4f782p+0, -0x1.9d2ddade50473p-3, 0x1.f30df98301d5ep-4,
    0x1.b59eca77c7752p-1, 0x1.756c5bad4da44p-1, -0x1.1052fad707abp-1,
    0x1.13cff74d36bc5p+0,
};

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(99);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0;
  double sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMeanMatchesRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.lognormal_mean_cv(5.0, 0.2);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, LognormalZeroCvIsExact) {
  Rng rng(13);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(3.5, 0.0), 3.5);
}

TEST(Rng, LognormalIsAlwaysPositive) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.lognormal_mean_cv(1.0, 0.5), 0.0);
  }
}

TEST(Rng, LognormalRejectsBadArguments) {
  Rng rng(17);
  EXPECT_THROW(rng.lognormal_mean_cv(0.0, 0.1), InvalidArgument);
  EXPECT_THROW(rng.lognormal_mean_cv(1.0, -0.1), InvalidArgument);
  EXPECT_THROW(Rng::lognormal_shape(-0.1), InvalidArgument);
  EXPECT_THROW(rng.lognormal(0.0, Rng::lognormal_shape(0.1)), InvalidArgument);
}

TEST(Rng, NormalStreamMatchesGolden) {
  Rng rng(0x5EED);
  for (const double golden : kNormalGolden) {
    EXPECT_NEAR(rng.normal(), golden, 1e-15 * std::max(1.0, std::fabs(golden)));
  }
}

TEST(Rng, SinCos2PiMatchesLibm) {
  double worst = 0.0;
  auto check = [&](double u) {
    const SinCos sc = sincos_2pi(u);
    const double angle = 2.0 * std::numbers::pi * u;
    worst = std::max({worst, std::fabs(sc.sin - std::sin(angle)),
                      std::fabs(sc.cos - std::cos(angle))});
  };
  check(0.0);
  for (int k = 1; k <= 8; ++k) {
    check(k / 8.0);
  }
  check(1.0 - 0x1.0p-53);
  Rng rng(41);
  for (int i = 0; i < 1'000'000; ++i) {
    check(rng.uniform());
  }
  EXPECT_LT(worst, 1e-15);
}

TEST(Rng, LognormalMatchesUnhoistedFormula) {
  // Two generators on one seed: `normals` hands the oracle the z that
  // `draws` consumes inside lognormal().
  for (const double cv : {0.008, 0.012, 0.05, 0.3}) {
    const Rng::LognormalShape shape = Rng::lognormal_shape(cv);
    Rng draws(31);
    Rng normals(31);
    for (int i = 0; i <= 1500; ++i) {
      const double mean = std::pow(10.0, -3.0 + 0.01 * i);  // 1e-3 .. 1e12
      const double oracle = lognormal_oracle(mean, cv, normals.normal());
      EXPECT_NEAR(draws.lognormal(mean, shape), oracle, 1e-13 * oracle)
          << "mean=" << mean << " cv=" << cv;
    }
  }
}

TEST(Rng, ZeroCvDrawConsumesNoNormal) {
  Rng rng(37);
  Rng twin(37);
  EXPECT_EQ(rng.lognormal_mean_cv(2.0, 0.0), 2.0);
  EXPECT_EQ(rng.normal(), twin.normal());
  // Same with the second half of a Box–Muller pair cached.
  EXPECT_EQ(rng.lognormal(5.0, Rng::lognormal_shape(0.0)), 5.0);
  EXPECT_EQ(rng.normal(), twin.normal());
  EXPECT_EQ(rng.normal(), twin.normal());
}

/// Bits of a double, so that EXPECT_EQ compares bits (and NaN is no escape).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Rng, BatchedNormalsMatchOneAtATime) {
  // `batched` draws through normals() with random wanted masks; `twin` makes
  // the same draws one normal() at a time. Lengths run odd and even, so a
  // pair's cached second half carries into the next call, which is
  // sometimes a plain normal().
  Rng batched(0x5EED);
  Rng twin(0x5EED);
  Rng pick(99);
  std::vector<double> out(64);
  for (int call = 0; call < 4000; ++call) {
    if (pick.uniform_index(5) == 0) {
      ASSERT_EQ(bits(batched.normal()), bits(twin.normal())) << "call " << call;
      continue;
    }
    const std::size_t n = pick.uniform_index(65);
    // Dense, sparse and empty masks all occur.
    const std::uint64_t density = pick.uniform_index(4);
    std::uint64_t wanted = pick();
    for (std::uint64_t d = 0; d < density; ++d) {
      wanted &= pick();
    }
    if (density == 3 && pick.uniform_index(2) == 0) {
      wanted = 0;
    }
    std::fill(out.begin(), out.end(), 0.0);
    batched.normals(std::span<double>(out.data(), n), wanted);
    for (std::size_t i = 0; i < n; ++i) {
      const double z = twin.normal();
      if (((wanted >> i) & 1) != 0) {
        ASSERT_EQ(bits(out[i]), bits(z))
            << "call " << call << " draw " << i << " of " << n;
      }
    }
    ASSERT_EQ(bits(batched.normal()), bits(twin.normal())) << "after call " << call;
  }
}

TEST(Rng, BatchedNormalsCarryTheSecondHalfOfAnUnreadPair) {
  // An odd batch whose last draw is unwanted ends on the first half of a
  // pair: the second half must still come out of the next normal() and of
  // the next batch with the libm-free Box–Muller bits.
  for (const bool next_is_batch : {false, true}) {
    Rng batched(17);
    Rng twin(17);
    std::array<double, 3> out{};
    batched.normals(out, 0b011);
    EXPECT_EQ(bits(out[0]), bits(twin.normal()));
    EXPECT_EQ(bits(out[1]), bits(twin.normal()));
    twin.normal();
    double second = 0.0;
    if (next_is_batch) {
      batched.normals(std::span<double>(&second, 1), 1);
    } else {
      second = batched.normal();
    }
    EXPECT_EQ(bits(second), bits(twin.normal()));
    EXPECT_EQ(bits(batched.normal()), bits(twin.normal()));
  }
}

TEST(Rng, BatchedNormalsRejectMoreThan64) {
  Rng rng(1);
  std::vector<double> out(65);
  EXPECT_THROW(rng.normals(out, ~std::uint64_t{0}), InvalidArgument);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(5);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (parent() == child());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(21);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationOfZeroIsEmpty) {
  Rng rng(21);
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, SplitMix64KnownVector) {
  // Reference value from the splitmix64 reference implementation with
  // state = 0: first output is 0xE220A8397B1DCDAF.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, TrimRemovesWhitespace) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("PAPI_TOT_CYC", "PAPI_"));
  EXPECT_FALSE(starts_with("TOT_CYC", "PAPI_"));
  EXPECT_FALSE(starts_with("PA", "PAPI_"));
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC123"), "abc123"); }

TEST(Strings, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(Strings, ParseNumbersStrictly) {
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_EQ(parse_u64("200000"), 200000u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "1.5s", " 1", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
  for (const char* bad : {"", "abc", "12x", "-1", "1.5", "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Strings, AssignStoresOnlyValuesThatFit) {
  double ghz = 2.4;
  EXPECT_TRUE(assign(parse_double("3.5"), ghz));
  EXPECT_EQ(ghz, 3.5);
  EXPECT_FALSE(assign(parse_double("abc"), ghz));
  EXPECT_EQ(ghz, 3.5);
  std::uint32_t leaves = 7;
  EXPECT_TRUE(assign(parse_u64("4294967295"), leaves));
  EXPECT_EQ(leaves, UINT32_MAX);
  EXPECT_FALSE(assign(parse_u64("4294967296"), leaves));
  EXPECT_FALSE(assign(parse_u64("-1"), leaves));
  EXPECT_EQ(leaves, UINT32_MAX);
}

// ---------------------------------------------------------------- csv

TEST(Csv, PlainFieldsUnquoted) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, FieldsWithSeparatorAreQuoted) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a,b", "c"});
  EXPECT_EQ(os.str(), "\"a,b\",c\n");
}

TEST(Csv, QuotesAreDoubled) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\"", ','), "\"say \"\"hi\"\"\"");
}

TEST(Csv, NewlinesForceQuoting) {
  EXPECT_EQ(CsvWriter::escape("a\nb", ','), "\"a\nb\"");
}

// ---------------------------------------------------------------- json

TEST(Json, RoundTripScalars) {
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, RoundTripNestedDocument) {
  const std::string doc = R"({"a": [1, 2.5, {"b": "x"}], "c": null, "d": true})";
  const Json parsed = Json::parse(doc);
  const Json reparsed = Json::parse(parsed.dump());
  EXPECT_EQ(reparsed.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(reparsed.at("a").as_array()[2].at("b").as_string(), "x");
  EXPECT_TRUE(reparsed.at("c").is_null());
  EXPECT_TRUE(reparsed.at("d").as_bool());
}

TEST(Json, CompactDumpHasNoNewlines) {
  Json j;
  j["x"] = 1;
  j["y"] = "z";
  EXPECT_EQ(j.dump(-1).find('\n'), std::string::npos);
}

TEST(Json, ObjectKeysAreSorted) {
  Json j;
  j["zeta"] = 1;
  j["alpha"] = 2;
  const std::string out = j.dump(-1);
  EXPECT_LT(out.find("alpha"), out.find("zeta"));
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  const Json j = Json::parse("\"\\u00e9\"");  // é
  EXPECT_EQ(j.as_string(), "\xc3\xa9");
}

TEST(Json, ParseErrorsThrowIoError) {
  EXPECT_THROW(Json::parse("{"), IoError);
  EXPECT_THROW(Json::parse("[1,]2"), IoError);
  EXPECT_THROW(Json::parse("tru"), IoError);
  EXPECT_THROW(Json::parse("\"unterminated"), IoError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), IoError);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_object(), Error);
  EXPECT_THROW(j.as_number(), Error);
  EXPECT_THROW(j.at("x"), Error);
}

TEST(Json, FindReturnsNullForMissingKey) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_EQ(j.find("b"), nullptr);
  EXPECT_NE(j.find("a"), nullptr);
}

TEST(Json, NumbersSurviveRoundTripExactly) {
  for (double v : {0.1, 1e-300, 1e300, -123456.789, 3.141592653589793}) {
    Json j(v);
    EXPECT_EQ(Json::parse(j.dump()).as_number(), v) << v;
  }
}

TEST(Json, NonFiniteNumbersRejectedOnDump) {
  Json j(std::nan(""));
  EXPECT_THROW(j.dump(), Error);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // All lines equal width up to trailing spaces being present.
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), InvalidArgument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), InvalidArgument);
}

// ---------------------------------------------------------------- units

TEST(Units, FrequencyConversions) {
  EXPECT_DOUBLE_EQ(units::mhz_to_ghz(2400.0), 2.4);
  EXPECT_DOUBLE_EQ(units::ghz_to_hz(1.2), 1.2e9);
  EXPECT_DOUBLE_EQ(units::hz_to_ghz(2.6e9), 2.6);
}

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(units::ns_to_s(1500000000ull), 1.5);
  EXPECT_EQ(units::s_to_ns(2.5), 2500000000ull);
}

// ---------------------------------------------------------------- log

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  PWX_LOG_DEBUG("this must not crash even when filtered");
  set_log_level(before);
}

// Capture log output into a string, restoring global state on destruction.
class LogCapture {
public:
  LogCapture() : level_(log_level()), format_(log_format()) {
    set_log_stream(&stream_);
  }
  ~LogCapture() {
    set_log_stream(nullptr);
    set_log_format(format_);
    set_log_level(level_);
  }
  std::string text() const { return stream_.str(); }

private:
  std::ostringstream stream_;
  LogLevel level_;
  LogFormat format_;
};

TEST(Log, MessagesBelowThresholdAreDiscarded) {
  LogCapture capture;
  set_log_level(LogLevel::Warn);
  log_message(LogLevel::Debug, "dropped");
  log_message(LogLevel::Info, "dropped too");
  log_message(LogLevel::Warn, "kept");
  log_message(LogLevel::Error, "kept too");
  EXPECT_EQ(capture.text().find("dropped"), std::string::npos);
  EXPECT_NE(capture.text().find("kept"), std::string::npos);
  EXPECT_NE(capture.text().find("kept too"), std::string::npos);
}

TEST(Log, TextModeAppendsFields) {
  LogCapture capture;
  set_log_level(LogLevel::Info);
  set_log_format(LogFormat::Text);
  log_message(LogLevel::Info, "campaign done",
              {{"rows", "42"}, {"verdict", "clean"}});
  EXPECT_NE(capture.text().find("[pwx INFO ]"), std::string::npos);
  EXPECT_NE(capture.text().find("campaign done"), std::string::npos);
  EXPECT_NE(capture.text().find("rows=42"), std::string::npos);
  EXPECT_NE(capture.text().find("verdict=clean"), std::string::npos);
}

TEST(Log, JsonModeEmitsOneParseableObjectPerLine) {
  LogCapture capture;
  set_log_level(LogLevel::Info);
  set_log_format(LogFormat::Json);
  log_message(LogLevel::Info, "flush \"quoted\"", {{"seq", "3"}});
  log_message(LogLevel::Warn, "second");

  std::istringstream lines(capture.text());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const Json first = Json::parse(line);
  EXPECT_EQ(first.at("level").as_string(), "info");
  EXPECT_EQ(first.at("msg").as_string(), "flush \"quoted\"");
  EXPECT_EQ(first.at("seq").as_string(), "3");
  EXPECT_FALSE(first.at("ts").as_string().empty());
  EXPECT_FALSE(first.at("thread").as_string().empty());
  // ISO 8601 UTC with millisecond precision: 2026-01-02T03:04:05.678Z.
  const std::string& ts = first.at("ts").as_string();
  EXPECT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("level").as_string(), "warn");
  EXPECT_FALSE(std::getline(lines, line));  // exactly two lines
}

}  // namespace
}  // namespace pwx
