// Paper Fig. 23: runtime of the two shift-elimination algorithms against
// the unoptimized parallel technique. Paper result: path tracing gains
// 24-84% (avg 43%); cycle breaking is *worse* than unoptimized for all but
// the smallest circuits because of bit-field expansion. (The paper omits
// cycle-breaking rows for c6288/c7552 due to a C-compiler bug; our
// in-process executor has no such limit, so all rows run.)
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 23", "shift elimination: path-tracing vs cycle-breaking",
               args, kUsPerVector);

  Table table({"circuit", "unoptimized", "path-tracing", "cycle-break",
               "pt gain%", "cb gain%", "paper pt%"});
  double sum_pt = 0;
  int rows = 0;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    const ParallelCompiled plain = compile_parallel(nl, {});
    ParallelOptions opt;
    opt.shift_elim = ShiftElim::PathTracing;
    const ParallelCompiled pt = compile_parallel(nl, opt);
    opt.shift_elim = ShiftElim::CycleBreaking;
    const ParallelCompiled cb = compile_parallel(nl, opt);

    const double t0 = time_compiled<std::uint32_t>(plain.program, w, args.trials);
    const double t1 = time_compiled<std::uint32_t>(pt.program, w, args.trials);
    const double t2 = time_compiled<std::uint32_t>(cb.program, w, args.trials);
    sum_pt += 100.0 * (t0 - t1) / t0;
    ++rows;
    const PaperRow* pr = paper_row(name);
    table.add_row({name, Table::num(us_per_vec(t0, w.vectors)),
                   Table::num(us_per_vec(t1, w.vectors)),
                   Table::num(us_per_vec(t2, w.vectors)),
                   Table::num(100.0 * (t0 - t1) / t0, 1),
                   Table::num(100.0 * (t0 - t2) / t0, 1),
                   pr ? Table::num(100.0 * (pr->parallel - pr->path_tracing) /
                                       pr->parallel, 1)
                      : "-"});
  }
  table.print(std::cout);
  std::printf("\naverage path-tracing gain: %.0f%% (paper: 43%%, range "
              "24-84%%; cycle-breaking typically loses on large circuits)\n",
              sum_pt / rows);
  return 0;
}
