// Paper Fig. 24: path-tracing shift elimination combined with bit-field
// trimming. Paper result: gains 24-84%, average 47% (vs 43% for shift
// elimination alone); trimming adds nothing on one-word circuits.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 24", "path tracing + bit-field trimming", args, kUsPerVector);

  Table table({"circuit", "unoptimized", "path-tracing", "with trimming",
               "gain%", "paper%"});
  double sum = 0;
  int rows = 0;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    const ParallelCompiled plain = compile_parallel(nl, {});
    ParallelOptions opt;
    opt.shift_elim = ShiftElim::PathTracing;
    const ParallelCompiled pt = compile_parallel(nl, opt);
    opt.trimming = true;
    const ParallelCompiled both = compile_parallel(nl, opt);

    const double t0 = time_compiled<std::uint32_t>(plain.program, w, args.trials);
    const double t1 = time_compiled<std::uint32_t>(pt.program, w, args.trials);
    const double t2 = time_compiled<std::uint32_t>(both.program, w, args.trials);
    const double gain = 100.0 * (t0 - t2) / t0;
    sum += gain;
    ++rows;
    const PaperRow* pr = paper_row(name);
    table.add_row({name, Table::num(us_per_vec(t0, w.vectors)),
                   Table::num(us_per_vec(t1, w.vectors)),
                   Table::num(us_per_vec(t2, w.vectors)), Table::num(gain, 1),
                   pr ? Table::num(100.0 * (pr->parallel - pr->combined) /
                                       pr->parallel, 1)
                      : "-"});
  }
  table.print(std::cout);
  std::printf("\naverage combined gain: %.0f%% (paper: 47%%)\n", sum / rows);
  return 0;
}
