// Paper Fig. 19: simulation time of interpreted event-driven (3-valued and
// 2-valued) vs the PC-set method vs the parallel technique, on the ten
// ISCAS-85-like circuits. Paper result: PC-set ~ 1/4 of interpreted time,
// parallel ~ 1/10 (with the c2670 anomaly where the two compiled methods
// tie because its PC-sets are unusually small).
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 19", "unit-delay simulation times, four techniques", args, kUsPerVector);

  Table table({"circuit", "interp3", "interp2", "pcset", "parallel",
               "i3/pcset", "i3/par", "paper", "paper"});
  double sum_pc = 0, sum_par = 0;
  int rows = 0;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);

    EventSim3 e3(nl);
    const double t3 = time_interpreted(e3, w, args.trials);
    EventSim2 e2(nl);
    const double t2 = time_interpreted(e2, w, args.trials);
    const PCSetCompiled pcs = compile_pcset(nl);
    const double tp = time_compiled<std::uint32_t>(pcs.program, w, args.trials);
    const ParallelCompiled par = compile_parallel(nl, {});
    const double ta = time_compiled<std::uint32_t>(par.program, w, args.trials);

    sum_pc += t3 / tp;
    sum_par += t3 / ta;
    ++rows;
    const PaperRow* pr = paper_row(name);
    table.add_row({name, Table::num(us_per_vec(t3, w.vectors)),
                   Table::num(us_per_vec(t2, w.vectors)),
                   Table::num(us_per_vec(tp, w.vectors)),
                   Table::num(us_per_vec(ta, w.vectors)),
                   Table::num(t3 / tp, 1), Table::num(t3 / ta, 1),
                   pr ? Table::num(pr->interp3 / pr->pcset, 1) : "-",
                   pr ? Table::num(pr->interp3 / pr->parallel, 1) : "-"});
  }
  table.print(std::cout);
  std::printf("\naverage speedup over interpreted 3-valued: PC-set %.1fx, "
              "parallel %.1fx\n",
              sum_pc / rows, sum_par / rows);
  std::printf("(paper: PC-set ~4x, parallel ~10x)\n");
  return 0;
}
