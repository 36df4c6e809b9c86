// Observability-overhead ablation: wall time of the compiled
// parallel-combined engine with metrics disabled (null registry) versus
// enabled (shared MetricsRegistry), plus the counter story of the enabled
// run. The design target (DESIGN.md §5e) is <2% overhead when disabled and
// a few percent when enabled: counters are bumped once per *vector pass*
// with per-pass constants, never once per op.
//
// Extra options on top of the shared harness flags:
//   --json PATH   machine-readable results (default ablation_observability.json)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "parsim/parallel_sim.h"

namespace {

std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "ablation_observability.json";
}

struct Row {
  std::string name;
  std::size_t gates;
  double off_us;       // metrics disabled
  double on_us;        // metrics enabled
  double overhead_pct;
  std::uint64_t exec_ops;
  std::uint64_t shift_ops;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::string json_path = parse_json_path(argc, argv);
  print_header("Ablation", "observability overhead (counters off vs on)", args, kUsPerVector);

  Table table({"circuit", "gates", "off us/vec", "on us/vec", "overhead",
               "exec.ops", "exec.shift_ops"});
  std::vector<Row> rows;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const ParallelCompiled compiled = compile_parallel(
        nl, {.trimming = true, .shift_elim = ShiftElim::PathTracing});
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    std::vector<std::uint32_t> in(w.bits.size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = w.bits[i];

    KernelRunner<std::uint32_t> runner(compiled.program);
    const auto replay = [&] {
      for (std::size_t v = 0; v < w.vectors; ++v) {
        runner.run(std::span<const std::uint32_t>(in.data() + v * w.inputs,
                                                  w.inputs));
      }
    };
    // Disabled: the hot loop carries one dead branch per pass.
    runner.set_metrics(nullptr);
    const double off = median_seconds(replay, args.trials);
    // Enabled: same loop, per-pass constant adds into relaxed atomics.
    MetricsRegistry reg;
    runner.set_metrics(&reg);
    const double on = median_seconds(replay, args.trials);

    const auto snap = reg.snapshot();
    const double overhead = off > 0 ? 100.0 * (on - off) / off : 0.0;
    rows.push_back({name, nl.real_gate_count(), us_per_vec(off, w.vectors),
                    us_per_vec(on, w.vectors), overhead, snap.at("exec.ops"),
                    snap.at("exec.shift_ops")});
    table.add_row({name, std::to_string(nl.real_gate_count()),
                   Table::num(us_per_vec(off, w.vectors)),
                   Table::num(us_per_vec(on, w.vectors)),
                   Table::num(overhead, 2) + "%",
                   std::to_string(snap.at("exec.ops")),
                   std::to_string(snap.at("exec.shift_ops"))});
  }
  table.print(std::cout);
  std::printf("\n(positive overhead%% = enabled run slower; timing noise can "
              "make small values negative)\n");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_observability\",\n"
                 "  \"vectors\": %zu,\n  \"trials\": %d,\n  \"seed\": %llu,\n"
                 "  \"circuits\": [\n",
                 args.vectors, args.trials,
                 static_cast<unsigned long long>(args.seed));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"gates\": %zu, "
                   "\"off_us_per_vector\": %.4f, \"on_us_per_vector\": %.4f, "
                   "\"overhead_pct\": %.3f, \"exec_ops\": %llu, "
                   "\"exec_shift_ops\": %llu}%s\n",
                   r.name.c_str(), r.gates, r.off_us, r.on_us, r.overhead_pct,
                   static_cast<unsigned long long>(r.exec_ops),
                   static_cast<unsigned long long>(r.shift_ops),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
