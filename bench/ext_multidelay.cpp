// Extension experiment: the techniques under a multi-delay timing model
// (the paper's "more accurate timing models" future work). Each profile's
// gates get random delays in [1, D]; deeper time axes mean wider bit-fields
// for the parallel technique and larger PC-sets for the PC-set method, so
// the compiled advantage shrinks as D grows — this bench quantifies that.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "gen/random_dag.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Extension", "multi-delay timing model (D = max gate delay)", args, kUsPerVector);

  Table table({"D", "levels", "interp3", "pcset", "parallel", "par+pt",
               "i3/pcset", "i3/par"});
  for (int max_delay : {1, 2, 4, 8}) {
    RandomDagParams p;
    p.name = "md" + std::to_string(max_delay);
    p.inputs = 40;
    p.outputs = 20;
    p.gates = 800;
    p.depth = 20;
    p.seed = args.seed + 5;
    p.max_delay = max_delay;
    p.xor_fraction = 0.3;
    const Netlist nl = random_dag(p);
    const Levelization lv = levelize(nl);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);

    EventSim3 e3(nl);
    const double t3 = time_interpreted(e3, w, args.trials);
    const PCSetCompiled pcs = compile_pcset(nl);
    const double tp = time_compiled<std::uint32_t>(pcs.program, w, args.trials);
    const ParallelCompiled par = compile_parallel(nl, {});
    const double ta = time_compiled<std::uint32_t>(par.program, w, args.trials);
    ParallelOptions opt;
    opt.shift_elim = ShiftElim::PathTracing;
    opt.trimming = true;
    const ParallelCompiled pt = compile_parallel(nl, opt);
    const double tt = time_compiled<std::uint32_t>(pt.program, w, args.trials);

    table.add_row({std::to_string(max_delay), std::to_string(lv.depth + 1),
                   Table::num(us_per_vec(t3, w.vectors)),
                   Table::num(us_per_vec(tp, w.vectors)),
                   Table::num(us_per_vec(ta, w.vectors)),
                   Table::num(us_per_vec(tt, w.vectors)),
                   Table::num(t3 / tp, 1), Table::num(t3 / ta, 1)});
  }
  table.print(std::cout);
  std::printf("\n(the same 800-gate topology throughout; only the per-gate "
              "delays change. Event-driven cost is delay-insensitive, the "
              "compiled techniques pay for the longer time axis.)\n");
  return 0;
}
