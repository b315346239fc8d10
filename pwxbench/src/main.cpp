// pwx_e2e_bench — end-to-end benchmark of the pwx pipeline.
//
//   pwx_e2e_bench --workload <model_build|fleet_serve|corpus_refresh>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--perturb <output>] [--source-rev <rev>]
//
// Each workload is a closed loop driven from this one process: the next
// operation starts when the previous one returned. The seed makes every
// input (campaign noise, fleet stream, trace corpus); the library only sees
// the generated inputs. With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it reports the per-layer metrics, timed by
// benchmark-side spans, and the tracing overhead against untraced
// operations of the same process. Every workload checks its outputs; a
// failed check prints "FAIL ..." lines and exits 1.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "context" line with the provenance of the numbers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/json.hpp"
#include "core/dense_kernels.hpp"
#include "harness.hpp"

namespace {

using pwx::bench::Args;
using pwx::bench::Metric;
using pwx::bench::Result;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: pwx_e2e_bench --workload <model_build|fleet_serve|"
               "corpus_refresh> --seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--perturb <output>] [--source-rev <rev>]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 0);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--perturb") {
      args.perturb = value;
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    usage("--workload is required");
  }
  if (!have_seed) {
    usage("--seed must be an integer");
  }
  return args;
}

/// OpenMP threads, capped at the number of online CPUs.
int configure_threads() {
  const int cpus = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
#ifdef _OPENMP
  if (omp_get_max_threads() > cpus) {
    omp_set_num_threads(cpus);
  }
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// A metric or context value as JSON: a number when finite, else null.
pwx::Json json_number(double value) {
  return std::isfinite(value) ? pwx::Json(value) : pwx::Json(nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const int threads = configure_threads();
  const double start_wall_s = pwx::bench::now_s();
  const double start_steal_s = pwx::bench::host_steal_s();

  Result result;
  try {
    if (args.workload == "model_build") {
      pwx::bench::run_model_build(args, result);
    } else if (args.workload == "fleet_serve") {
      pwx::bench::run_fleet_serve(args, result);
    } else if (args.workload == "corpus_refresh") {
      pwx::bench::run_corpus_refresh(args, result);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const double calibration_ms = pwx::bench::calibration_reference_ms();
  // Share of this machine's CPU time the hypervisor gave to other guests
  // during the run: how much the host disturbed the wall-clock figures.
  const double steal_pct = (pwx::bench::host_steal_s() - start_steal_s) /
                           ((pwx::bench::now_s() - start_wall_s) *
                            std::max(1u, std::thread::hardware_concurrency())) *
                           100.0;
  result.set("calib.reference_ms", calibration_ms);

  // Every declared metric is printed. An end-to-end metric the workload did
  // not measure is a failure; a per-layer metric it did not set belongs to a
  // layer that is not on this workload's path and reads 0.
  const std::vector<Metric>& declared = args.trace ? pwx::bench::per_layer_metrics()
                                                   : pwx::bench::end_to_end_metrics();
  std::vector<double> values;
  for (const Metric& m : declared) {
    const auto it = result.values().find(m.name);
    if (it == result.values().end()) {
      result.check(args.trace, m.name + " was measured");
      values.push_back(0.0);
    } else {
      result.check(std::isfinite(it->second), m.name + " is finite");
      values.push_back(it->second);
    }
  }

  for (std::size_t i = 0; i < declared.size(); ++i) {
    std::printf("%-30s %22.6f %s\n", declared[i].name.c_str(), values[i],
                declared[i].unit.c_str());
  }
  for (const std::string& failure : result.failures()) {
    std::printf("FAIL %s\n", failure.c_str());
  }

  const char* force_scalar = std::getenv("PWX_FORCE_SCALAR");
  const char* wait_policy = std::getenv("OMP_WAIT_POLICY");
  pwx::Json::Object context = result.context();
  for (auto& [key, value] : context) {
    if (value.type() == pwx::Json::Type::Number) {
      value = json_number(value.as_number());
    }
  }
  context["workload"] = args.workload;
  context["seed"] = std::to_string(args.seed);
  context["trace"] = args.trace;
  context["seconds"] = args.seconds;
  context["smoke"] = args.smoke;
  context["source_rev"] = args.source_rev;
  context["build_type"] = PWX_BENCH_BUILD_TYPE;
  context["compiler"] = PWX_BENCH_COMPILER;
  context["nproc"] = std::size_t{std::thread::hardware_concurrency()};
  context["omp_threads"] = threads;
  context["batch_kernel"] =
      std::string(pwx::core::batch_kernel_name(pwx::core::active_batch_kernel()));
  context["PWX_FORCE_SCALAR"] = force_scalar == nullptr ? "" : force_scalar;
  context["OMP_WAIT_POLICY"] = wait_policy == nullptr ? "" : wait_policy;
  context["calib.reference_ms"] = json_number(calibration_ms);
  context["host_steal_pct"] = json_number(steal_pct);
  std::printf("context %s\n", pwx::Json(std::move(context)).dump(-1).c_str());

  pwx::Json::Object metrics;
  for (std::size_t i = 0; i < declared.size(); ++i) {
    metrics[declared[i].name] =
        pwx::Json::Object{{"value", json_number(values[i])}, {"unit", declared[i].unit}};
  }
  const pwx::Json line(pwx::Json::Object{
      {"correct", result.correct()},
      {"attempted", std::size_t{result.attempted}},
      {"failed", std::size_t{result.failed}},
      {"metrics", std::move(metrics)},
  });
  std::printf("%s\n", line.dump(-1).c_str());
  return result.correct() ? 0 : 1;
}
