// Circuit-breaker ablation (DESIGN.md §5k): what a dead external toolchain
// costs the service with and without the breaker.
//
// Scenario: every request is a program-cache miss (distinct netlist seeds)
// and the configured C compiler hangs until the compile timeout kills it.
// With the breaker disabled (failure_threshold = 0 never trips) every miss
// pays the full timeout before falling back to the IR chain. With the
// breaker enabled the first `threshold` misses pay it, the breaker opens,
// and the rest skip native untried (native.breaker_skipped) — the toolchain
// tax is capped at threshold × timeout no matter how many requests arrive.
// Both modes must complete every request via the IR fallback; the ablation
// is purely about latency, never about availability.
//
// Extra options on top of the shared harness flags:
//   --json PATH   machine-readable results (default ablation_breaker.json)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/table.h"
#include "service/sim_service.h"

namespace {

std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "ablation_breaker.json";
}

struct Row {
  std::string name;
  std::string mode;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t builds = 0;        // native builds attempted (each pays the timeout)
  std::uint64_t skipped = 0;       // native.breaker_skipped
  double total_ms = 0;             // wall clock for the whole request train
  double mean_ms = 0;              // per-request wall latency (incl. compile)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  namespace fs = std::filesystem;
  using namespace std::chrono_literals;

  BenchArgs args = BenchArgs::parse(argc, argv);
  if (args.circuits.empty()) args.circuits = {"c432"};
  const std::string json_path = parse_json_path(argc, argv);
  print_header("Ablation",
               "toolchain-outage cost with vs without the circuit breaker",
               args, "milliseconds per request train (total) and per request (mean)");

  // A compiler that hangs until the runner's SIGTERM→SIGKILL escalation
  // ends it: the worst toolchain failure mode (a fast `exit 1` would make
  // the ablation nearly free either way).
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = "/tmp";
  const fs::path dir = tmp / ("udsim-ablation-breaker-" +
                              std::to_string(static_cast<unsigned>(::getpid())));
  fs::create_directories(dir, ec);
  const fs::path fakecc = dir / "hangcc.sh";
  {
    std::ofstream f(fakecc);
    f << "#!/bin/sh\nsleep 30\n";
  }
  fs::permissions(fakecc, fs::perms::owner_all, fs::perm_options::add, ec);

  constexpr std::chrono::milliseconds kCompileTimeout = 150ms;
  constexpr unsigned kThreshold = 2;
  constexpr std::size_t kRequests = 8;

  struct Mode {
    const char* label;
    unsigned threshold;  // 0 = breaker never trips (the control)
  };
  const Mode modes[] = {{"no-breaker", 0}, {"breaker", kThreshold}};

  Table table({"circuit", "mode", "reqs", "done", "builds", "skipped",
               "total ms", "mean ms"});
  std::vector<Row> rows;
  bool sane = true;

  for (const std::string& name : args.circuits) {
    for (const Mode& mode : modes) {
      ServiceConfig cfg;
      cfg.workers = 1;  // serialize: the toolchain tax is counted exactly
      cfg.batch_threads = 1;
      cfg.enable_native = true;
      cfg.native.compiler = fakecc.string();
      cfg.native.compile_timeout = kCompileTimeout;
      cfg.native.cache_dir = (dir / "cache").string();
      cfg.native_breaker.name = "toolchain";
      cfg.native_breaker.failure_threshold = mode.threshold;
      cfg.native_breaker.cooldown = 60s;
      SimService svc(cfg);
      const SessionId sid = svc.open_session(mode.label);

      Row row;
      row.name = name;
      row.mode = mode.label;
      double latency_sum_ms = 0;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kRequests; ++i) {
        // Distinct seeds: every request is a cache miss that would attempt
        // its own native build if the breaker lets it through.
        const auto nl = std::make_shared<Netlist>(
            make_iscas85_like(name, args.seed + 1 + i));
        const Workload w(nl->primary_inputs().size(), args.vectors,
                         args.seed + 7 + i);
        const auto req_start = std::chrono::steady_clock::now();
        const SimResponse r = svc.run(
            sid, SimRequest{.netlist = nl, .vectors = w.bits, .deadline = 60s});
        ++row.requests;
        if (r.outcome == Outcome::Completed) {
          ++row.completed;
          // Wall latency, not the service's queue_ns + run_ns: the compile
          // phase (the thing the breaker amputates) is the cost under test.
          latency_sum_ms += 1e-6 * static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - req_start).count());
        }
      }
      row.total_ms = 1e-6 * static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start).count());
      row.mean_ms =
          row.completed ? latency_sum_ms / static_cast<double>(row.completed)
                        : 0;
      const auto snap = svc.metrics().snapshot();
      const auto count = [&snap](const char* key) -> std::uint64_t {
        const auto it = snap.find(key);
        return it == snap.end() ? 0 : it->second;
      };
      row.builds = count("native.builds");
      row.skipped = count("native.breaker_skipped");
      svc.shutdown();

      table.add_row({row.name, row.mode, std::to_string(row.requests),
                     std::to_string(row.completed),
                     std::to_string(row.builds), std::to_string(row.skipped),
                     Table::num(row.total_ms), Table::num(row.mean_ms)});

      // Sanity (the smoke test rides on the exit code): the outage must
      // never cost availability, and the breaker must cap the build count.
      if (row.completed != row.requests) {
        std::fprintf(stderr, "%s/%s: %llu of %llu requests completed\n",
                     row.name.c_str(), row.mode.c_str(),
                     static_cast<unsigned long long>(row.completed),
                     static_cast<unsigned long long>(row.requests));
        sane = false;
      }
      if (mode.threshold == 0 && row.builds != kRequests) {
        std::fprintf(stderr,
                     "%s/no-breaker: expected %zu builds, saw %llu\n",
                     row.name.c_str(), kRequests,
                     static_cast<unsigned long long>(row.builds));
        sane = false;
      }
      if (mode.threshold != 0 &&
          (row.builds != mode.threshold ||
           row.skipped != kRequests - mode.threshold)) {
        std::fprintf(stderr,
                     "%s/breaker: expected %u builds + %zu skips, saw "
                     "%llu + %llu\n",
                     row.name.c_str(), mode.threshold,
                     kRequests - mode.threshold,
                     static_cast<unsigned long long>(row.builds),
                     static_cast<unsigned long long>(row.skipped));
        sane = false;
      }
      rows.push_back(std::move(row));
    }
  }
  table.print(std::cout);
  std::printf("\n(each native build pays the full %lld ms compile timeout; "
              "the breaker opens after %u and the rest skip the toolchain "
              "untried. Every request still completes via the IR chain.)\n",
              static_cast<long long>(kCompileTimeout.count()), kThreshold);

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_breaker\",\n"
                 "  \"vectors\": %zu,\n  \"seed\": %llu,\n"
                 "  \"compile_timeout_ms\": %lld,\n  \"threshold\": %u,\n"
                 "  \"modes\": [\n",
                 args.vectors, static_cast<unsigned long long>(args.seed),
                 static_cast<long long>(kCompileTimeout.count()), kThreshold);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"mode\": \"%s\", "
                   "\"requests\": %llu, \"completed\": %llu, "
                   "\"builds\": %llu, \"skipped\": %llu, "
                   "\"total_ms\": %.3f, \"mean_ms\": %.3f}%s\n",
                   r.name.c_str(), r.mode.c_str(),
                   static_cast<unsigned long long>(r.requests),
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.builds),
                   static_cast<unsigned long long>(r.skipped), r.total_ms,
                   r.mean_ms, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    sane = false;
  }

  fs::remove_all(dir, ec);
  return sane ? 0 : 1;
}
