// Paper Fig. 20: the effect of bit-field trimming on the parallel
// technique. Paper result: 20-36% improvement (avg 26%) on multi-word
// circuits, no effect on circuits whose fields fit one word.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 20", "bit-field trimming vs unoptimized parallel technique",
               args, kUsPerVector);

  Table table({"circuit", "levels(words)", "parallel", "trimmed", "gain%", "paper%"});
  double sum = 0;
  int multi = 0;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    const ParallelCompiled plain = compile_parallel(nl, {});
    ParallelOptions o;
    o.trimming = true;
    const ParallelCompiled trimmed = compile_parallel(nl, o);
    const double tp = time_compiled<std::uint32_t>(plain.program, w, args.trials);
    const double tt = time_compiled<std::uint32_t>(trimmed.program, w, args.trials);
    const double gain = 100.0 * (tp - tt) / tp;
    if (plain.stats.field_words_max > 1) {
      sum += gain;
      ++multi;
    }
    const PaperRow* pr = paper_row(name);
    table.add_row({name,
                   std::to_string(plain.stats.field_bits_max) + "(" +
                       std::to_string(plain.stats.field_words_max) + ")",
                   Table::num(us_per_vec(tp, w.vectors)),
                   Table::num(us_per_vec(tt, w.vectors)), Table::num(gain, 1),
                   pr ? Table::num(100.0 * (pr->parallel - pr->trimmed) / pr->parallel, 1)
                      : "-"});
  }
  table.print(std::cout);
  if (multi) {
    std::printf("\naverage gain on multi-word circuits: %.0f%% (paper: 26%%, "
                "range 20-36%%; one-word circuits unaffected)\n",
                sum / multi);
  }
  return 0;
}
