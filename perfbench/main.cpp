// udsim benchmark program. One run = one workload, one seed, one mode:
//
//   udsim_perfbench --workload unit-delay-deep|zero-delay-wide|service-small
//                   --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--trace-out FILE] [--inject-mismatch]
//
// Untraced (--trace 0) it prints every end-to-end metric; traced (--trace 1)
// every per-layer metric, the span self-time table and the tracing
// overhead. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status is 0 only when every operation succeeded and every sampled
// output row matched the oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (checked by test_perfbench.py).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_vps", "vectors/s"},
    {"requests_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"ok_share", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"analysis.levelize_us", "us"},
    {"analysis.pcset_us", "us"},
    {"analysis.alignment_us", "us"},
    {"analysis.trimming_us", "us"},
    {"parsim.compile_us", "us"},
    {"pcsim.compile_us", "us"},
    {"lcc.compile_us", "us"},
    {"ir.ops", "count"},
    {"ir.arena_words", "count"},
    {"native.build_ms", "ms"},
    {"native.load_ms", "ms"},
    {"core.kernel_ns_per_pass", "ns"},
    {"exec.ops_per_vector", "count"},
    {"core.make_simulator_ms", "ms"},
    {"core.nonkernel_ms", "ms"},
    {"core.kernel_share", "ratio"},
    {"core.fixed_call_us", "us"},
    {"core.pool_spawn_us", "us"},
    {"batch.seam_vectors", "count"},
    {"dispatch.width", "bits"},
    {"service.queue_wait_p50_us", "us"},
    {"service.queue_wait_p99_us", "us"},
    {"service.run_p50_us", "us"},
    {"service.run_p99_us", "us"},
    {"service.overhead_p50_us", "us"},
    {"service.overhead_p99_us", "us"},
    {"service.direct_us", "us"},
    {"service.wall_requests_per_s", "1/s"},
    {"service.wall_latency_p50_us", "us"},
    {"service.wall_latency_p99_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_lookups", "count"},
    {"service.cache_builds", "count"},
    {"service.cache_evictions", "count"},
    {"service.attempts_per_request", "ratio"},
    {"oracle.checked_rows", "count"},
    {"failed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "udsim_perfbench: %s\n"
               "usage: udsim_perfbench --workload unit-delay-deep|zero-delay-wide|"
               "service-small --seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-out FILE] [--inject-mismatch]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--inject-mismatch") {
      opt.inject_mismatch = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" && a != "--trace" &&
        a != "--work-dir" && a != "--trace-out") {
      return usage(("unknown argument " + a).c_str());
    }
    if ((v = value()) == nullptr) return usage(("missing value for " + a).c_str());
    if (a == "--workload") opt.workload = v;
    if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    if (a == "--seconds") opt.seconds = std::strtod(v, nullptr);
    if (a == "--trace") opt.trace = std::string(v) == "1";
    if (a == "--work-dir") opt.work_dir = v;
    if (a == "--trace-out") opt.trace_out = v;
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  perfbench::Report (*run)(const perfbench::Options&, perfbench::Tracer&) = nullptr;
  if (opt.workload == "unit-delay-deep") run = perfbench::run_unit_delay_deep;
  if (opt.workload == "zero-delay-wide") run = perfbench::run_zero_delay_wide;
  if (opt.workload == "service-small") run = perfbench::run_service_small;
  if (run == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  const perfbench::Environment env = perfbench::describe_environment();
  for (const auto& [k, v] : env.fields) std::printf("env %s=%s\n", k.c_str(), v.c_str());
  if (env.width_forced) {
    std::printf("env WARNING: lane width forced by UDSIM_FORCE_WIDTH; figures are not comparable\n");
  }
  std::fflush(stdout);

  perfbench::Tracer tracer(opt.trace);
  Report rep;
  try {
    rep = run(opt, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "udsim_perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  const double failed_share =
      rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted) : 1;
  rep.set("ok_share", 1 - failed_share, "ratio");
  rep.set("failed_share", failed_share, "ratio");
  if (rep.metrics.count("peak_rss_mb") == 0) rep.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");

  std::printf("inputs digest=%016llx\n", static_cast<unsigned long long>(rep.input_digest));
  std::printf("fingerprint {");
  const char* sep = "";
  for (const auto& [k, v] : rep.exact) {
    std::printf("%s\"%s\":%llu", sep, k.c_str(), static_cast<unsigned long long>(v));
    sep = ",";
  }
  std::printf("}\n");
  if (opt.trace) {
    tracer.print_self_times();
    if (!opt.trace_out.empty() && !tracer.write_json(opt.trace_out)) {
      std::fprintf(stderr, "udsim_perfbench: could not write %s\n", opt.trace_out.c_str());
    }
  }

  std::string json;
  char buf[160];
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = rep.metrics.find(m.name);
    const bool exercised = it != rep.metrics.end();
    double value = exercised ? it->second.value : 0;
    if (!std::isfinite(value)) {
      value = 0;
      rep.fail();
    }
    std::printf("metric %-30s %.6g %s%s\n", m.name, value, m.unit,
                exercised ? "" : "  (layer not on this workload)");
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  json.empty() ? "" : ",", m.name, value, m.unit);
    json += buf;
  }
  const bool correct = rep.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), json.c_str());
  return correct ? 0 : 1;
}
