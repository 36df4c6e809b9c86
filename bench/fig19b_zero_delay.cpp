// Paper Fig. 19 companion (text of §5): the zero-delay context experiment —
// "on the average a compiled simulation runs in 1/23 the time of an
// interpreted simulation" for zero-delay models.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "eventsim/zero_delay_sim.h"
#include "harness/table.h"
#include "lcc/lcc.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 19b", "zero-delay: interpreted selective-trace vs compiled LCC",
               args, kUsPerVector);

  Table table({"circuit", "interp_zd", "lcc", "ratio"});
  double sum = 0;
  int rows = 0;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    ZeroDelayEventSim zd(nl);
    const double ti = time_interpreted(zd, w, args.trials);
    const LccCompiled lcc = compile_lcc(nl);
    const double tc = time_compiled<std::uint32_t>(lcc.program, w, args.trials);
    sum += ti / tc;
    ++rows;
    table.add_row({name, Table::num(us_per_vec(ti, w.vectors)),
                   Table::num(us_per_vec(tc, w.vectors)), Table::num(ti / tc, 1)});
  }
  table.print(std::cout);
  std::printf("\naverage interpreted/compiled ratio: %.1fx (paper: ~23x)\n",
              sum / rows);
  return 0;
}
