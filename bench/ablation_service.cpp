// Service-layer ablation: offered-load sweep against one SimService per
// (circuit, load point), reporting end-of-pipe latency percentiles and the
// structured-refusal rates that replace crashes under overload.
//
// Each load point spawns C client threads that burst-submit R requests each
// (no pacing — the worst case for the bounded queue), then waits for every
// ticket. Per-request service latency = queue wait + run time, taken from
// the SimResponse the service stamps; refusals (QueueFull at submit,
// load-shed Rejected at schedule) are counted as rates, not latencies.
// The sweep shows the designed degradation: light load completes everything,
// saturation trades latency for throughput, overload converts the excess
// into QueueFull/shed rejections while completed work stays bit-exact.
//
// A second phase measures the telemetry tax (ISSUE 10): the same saturate
// load is replayed against one service with the full telemetry stack on
// (request traces, rolling window, JSONL event log) and one with
// telemetry.enabled = false, and the JSON reports both per-request costs
// plus the relative overhead. The numbers are wall-clock on a shared
// machine, so the optional gate is off by default.
//
// Extra options on top of the shared harness flags:
//   --json PATH   machine-readable results (default ablation_service.json)
//   --max-telemetry-overhead-pct P   exit non-zero when the measured
//                 telemetry overhead exceeds P percent (default: report only)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness/table.h"
#include "service/sim_service.h"

namespace {

std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "ablation_service.json";
}

double parse_overhead_gate(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--max-telemetry-overhead-pct") {
      return std::atof(argv[i + 1]);
    }
  }
  return -1.0;  // report only
}

struct LoadPoint {
  const char* label;
  unsigned clients;
  unsigned requests_per_client;
};

struct Row {
  std::string name;
  std::string load;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t shed_rejected = 0;
  std::uint64_t other = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  BenchArgs args = BenchArgs::parse(argc, argv);
  if (args.circuits.empty()) args.circuits = {"c432", "c880", "c1908"};
  const std::string json_path = parse_json_path(argc, argv);
  print_header("Ablation",
               "service latency under offered load (p50/p95/p99, refusal rates)",
               args, "microseconds per request");

  // One fixed, deliberately small service: 2 request workers over a queue of
  // 8 slots makes "overload" reachable with a handful of client threads.
  const LoadPoint points[] = {
      {"light", 1, 8},
      {"saturate", 4, 8},
      {"overload", 16, 8},
  };

  Table table({"circuit", "load", "offered", "done", "qfull", "shed",
               "p50 us", "p95 us", "p99 us"});
  std::vector<Row> rows;
  for (const std::string& name : args.circuit_names()) {
    const auto nl = std::make_shared<Netlist>(make_iscas85_like(name, args.seed));
    const Workload w(nl->primary_inputs().size(), args.vectors, args.seed + 7);

    for (const LoadPoint& pt : points) {
      ServiceConfig cfg;
      cfg.workers = 2;
      cfg.queue_capacity = 8;
      cfg.batch_threads = 1;
      SimService svc(cfg);

      std::vector<std::vector<ServiceTicket>> tickets(pt.clients);
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < pt.clients; ++c) {
        clients.emplace_back([&, c] {
          tickets[c].reserve(pt.requests_per_client);
          for (unsigned i = 0; i < pt.requests_per_client; ++i) {
            tickets[c].push_back(svc.submit(
                0, SimRequest{.netlist = nl, .vectors = w.bits}));
          }
        });
      }
      for (std::thread& t : clients) t.join();

      Row row;
      row.name = name;
      row.load = pt.label;
      std::vector<double> latencies_us;
      for (std::vector<ServiceTicket>& per_client : tickets) {
        for (ServiceTicket& t : per_client) {
          const SimResponse r = t.result.get();
          ++row.offered;
          switch (r.outcome) {
            case Outcome::Completed:
              ++row.completed;
              latencies_us.push_back(
                  1e-3 * static_cast<double>(r.queue_ns + r.run_ns));
              break;
            case Outcome::QueueFull: ++row.queue_full; break;
            case Outcome::Rejected: ++row.shed_rejected; break;
            default: ++row.other; break;
          }
        }
      }
      svc.shutdown();

      std::sort(latencies_us.begin(), latencies_us.end());
      row.p50_us = percentile(latencies_us, 0.50);
      row.p95_us = percentile(latencies_us, 0.95);
      row.p99_us = percentile(latencies_us, 0.99);
      table.add_row({row.name, row.load, std::to_string(row.offered),
                     std::to_string(row.completed),
                     std::to_string(row.queue_full),
                     std::to_string(row.shed_rejected), Table::num(row.p50_us),
                     Table::num(row.p95_us), Table::num(row.p99_us)});
      rows.push_back(std::move(row));
    }
  }
  table.print(std::cout);
  std::printf("\n(latency = queue wait + run time as stamped by the service; "
              "qfull/shed are structured refusals, never crashes. 'other' "
              "outcomes would indicate a bug and are reported in the JSON.)\n");

  // --- Telemetry overhead: the saturate load point on the first circuit,
  // telemetry fully on (traces + window + event log) vs fully off, best of
  // `trials` runs each to damp scheduler noise.
  struct TelemetryCost {
    double us_per_req = 0.0;
    std::uint64_t completed = 0;
  };
  const auto measure = [&](bool telemetry_on) {
    const std::string name = args.circuit_names().front();
    const auto nl =
        std::make_shared<Netlist>(make_iscas85_like(name, args.seed));
    const Workload w(nl->primary_inputs().size(), args.vectors, args.seed + 7);
    TelemetryCost best;
    const int trials = std::max(1, args.trials);
    for (int t = 0; t < trials; ++t) {
      ServiceConfig cfg;
      cfg.workers = 2;
      cfg.queue_capacity = 64;  // roomy: measure work, not refusals
      cfg.batch_threads = 1;
      cfg.telemetry.enabled = telemetry_on;
      if (telemetry_on) {
        cfg.telemetry.event_log_path = "ablation_service_events.jsonl";
      }
      SimService svc(cfg);
      constexpr unsigned kClients = 4, kPerClient = 8;
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::vector<ServiceTicket>> tickets(kClients);
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          tickets[c].reserve(kPerClient);
          for (unsigned i = 0; i < kPerClient; ++i) {
            tickets[c].push_back(
                svc.submit(0, SimRequest{.netlist = nl, .vectors = w.bits}));
          }
        });
      }
      for (std::thread& th : clients) th.join();
      std::uint64_t completed = 0;
      for (auto& per_client : tickets) {
        for (ServiceTicket& tk : per_client) {
          if (tk.result.get().outcome == Outcome::Completed) ++completed;
        }
      }
      const double us = 1e-3 * static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      svc.shutdown();
      const double per_req =
          completed == 0 ? 0.0 : us / static_cast<double>(completed);
      if (t == 0 || (per_req != 0.0 && per_req < best.us_per_req)) {
        best = {per_req, completed};
      }
    }
    return best;
  };
  const TelemetryCost on = measure(true);
  const TelemetryCost off = measure(false);
  const double overhead_pct =
      off.us_per_req <= 0.0
          ? 0.0
          : 100.0 * (on.us_per_req - off.us_per_req) / off.us_per_req;
  std::printf("\ntelemetry overhead (saturate, %s): on %.1f us/req, off %.1f "
              "us/req, overhead %+.2f%%\n",
              args.circuit_names().front().c_str(), on.us_per_req,
              off.us_per_req, overhead_pct);

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_service\",\n"
                 "  \"vectors\": %zu,\n  \"seed\": %llu,\n  \"points\": [\n",
                 args.vectors, static_cast<unsigned long long>(args.seed));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"load\": \"%s\", \"offered\": %llu, "
                   "\"completed\": %llu, \"queue_full\": %llu, "
                   "\"shed_rejected\": %llu, \"other\": %llu, "
                   "\"p50_us\": %.3f, \"p95_us\": %.3f, \"p99_us\": %.3f}%s\n",
                   r.name.c_str(), r.load.c_str(),
                   static_cast<unsigned long long>(r.offered),
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.queue_full),
                   static_cast<unsigned long long>(r.shed_rejected),
                   static_cast<unsigned long long>(r.other), r.p50_us,
                   r.p95_us, r.p99_us, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"telemetry\": {\"on_us_per_req\": %.3f, "
                 "\"off_us_per_req\": %.3f, \"overhead_pct\": %.3f, "
                 "\"completed_on\": %llu, \"completed_off\": %llu}\n}\n",
                 on.us_per_req, off.us_per_req, overhead_pct,
                 static_cast<unsigned long long>(on.completed),
                 static_cast<unsigned long long>(off.completed));
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    return 1;
  }

  const double gate = parse_overhead_gate(argc, argv);
  if (gate >= 0.0 && overhead_pct > gate) {
    std::fprintf(stderr,
                 "telemetry overhead %.2f%% exceeds the %.2f%% gate\n",
                 overhead_pct, gate);
    return 1;
  }

  // Sanity: every request resolved to a structured outcome.
  for (const Row& r : rows) {
    if (r.offered !=
        r.completed + r.queue_full + r.shed_rejected + r.other) {
      std::fprintf(stderr, "%s/%s: outcome counts do not sum to offered\n",
                   r.name.c_str(), r.load.c_str());
      return 1;
    }
    if (r.completed == 0) {
      std::fprintf(stderr, "%s/%s: nothing completed\n", r.name.c_str(),
                   r.load.c_str());
      return 1;
    }
  }
  return 0;
}
