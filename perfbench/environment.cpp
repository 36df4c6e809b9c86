// Environment block: what machine, compiler and overrides made a run.
#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/width_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif

namespace perfbench {
namespace {

std::string isa_flags() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return "cpuid leaf 7 unavailable";
  std::string out;
  const auto flag = [&](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  flag(b & (1u << 5), "avx2");
  flag(b & (1u << 8), "bmi2");
  flag(b & (1u << 16), "avx512f");
  flag(b & (1u << 31), "avx512vl");
  return out.empty() ? "none" : out;
}

/// First line of `cc --version` (the toolchain the native backend runs).
std::string cc_version() {
  FILE* p = popen("cc --version 2>/dev/null", "r");
  if (p == nullptr) return "unavailable";
  char line[256] = {0};
  const bool got = std::fgets(line, sizeof line, p) != nullptr;
  while (std::fgetc(p) != EOF) {
  }
  pclose(p);
  if (!got) return "unavailable";
  std::string s(line);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

/// Same work per thread on 1 and n threads: n × t(1) / t(n) is how many
/// cores the run actually gets (1.0 = no parallel speed-up at all).
double effective_parallelism(unsigned n) {
  const auto spin = [] {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  const auto wall = [&](unsigned threads) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    return seconds_since(t0);
  };
  const double one = wall(1);
  return static_cast<double>(n) * one / wall(n);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

Environment describe_environment() {
  Environment env;
  const unsigned nproc = std::thread::hardware_concurrency();
  env.fields = {
      {"isa", isa_flags()},
      {"compiler", PERFBENCH_CXX_ID},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cc", cc_version()},
      {"nproc", std::to_string(nproc)},
      {"effective_cores_at_2", fmt(effective_parallelism(2))},
  };
  if (nproc > 2) {
    env.fields.emplace_back("effective_cores_at_" + std::to_string(nproc),
                            fmt(effective_parallelism(nproc)));
  }
  const udsim::WidthChoice widest = udsim::dispatch_width(udsim::kWidthWidest);
  env.width_forced = widest.forced;
  env.fields.emplace_back("widest_width", std::to_string(widest.word_bits));
  env.fields.emplace_back("width_forced", widest.forced ? "yes" : "no");
  for (const char* var : {"UDSIM_FORCE_WIDTH", "UDSIM_CC", "UDSIM_CC_FLAGS",
                          "UDSIM_NATIVE_CACHE"}) {
    if (const char* v = std::getenv(var)) env.fields.emplace_back(var, v);
  }
  return env;
}

}  // namespace perfbench
