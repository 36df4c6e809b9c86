// Ablation C: validates the in-process-executor substitution (DESIGN.md §2).
// The generated program is emitted as C, compiled with the system compiler,
// dlopen-ed, checked for bit-exact agreement with the executor, and timed
// against it. Skips gracefully (exit 0 with a note) when no C compiler or
// dlopen is available.
#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "ir/c_emitter.h"
#include "parsim/parallel_sim.h"

namespace {

using namespace udsim;
using namespace udsim::bench;

using StepFn = void (*)(const std::uint32_t*);
using InitFn = void (*)();

struct LoadedKernel {
  void* handle = nullptr;
  StepFn step = nullptr;
  std::uint32_t* arena = nullptr;
  ~LoadedKernel() {
    if (handle) dlclose(handle);
  }
};

bool build_shared(const Program& p, const std::string& base, LoadedKernel& out) {
  const std::string c_path = base + ".c";
  const std::string so_path = base + ".so";
  {
    std::ofstream f(c_path);
    emit_c(f, p, {.function_name = "step", .arena_name = "arena", .comments = false});
  }
  const std::string cmd = "cc -O2 -shared -fPIC -o " + so_path + " " + c_path +
                          " 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) return false;
  out.handle = dlopen(so_path.c_str(), RTLD_NOW);
  if (!out.handle) return false;
  out.step = reinterpret_cast<StepFn>(dlsym(out.handle, "step"));
  out.arena = reinterpret_cast<std::uint32_t*>(dlsym(out.handle, "arena"));
  auto init = reinterpret_cast<InitFn>(dlsym(out.handle, "step_init"));
  if (!out.step || !out.arena || !init) return false;
  init();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  if (args.circuits.empty()) {
    // Subset by default: compiling c6288-scale C files is slow.
    args.circuits = {"c432", "c880", "c1908", "c3540"};
  }
  if (std::system("cc --version >/dev/null 2>&1") != 0) {
    std::printf("ablation_emitted_c: no C compiler available; skipping.\n");
    return 0;
  }
  print_header("Ablation C", "emitted C (cc -O2, dlopen) vs in-process executor",
               args, kUsPerVector);

  Table table({"circuit", "executor", "emitted C", "C/executor", "agree"});
  for (const std::string& name : args.circuits) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const ParallelCompiled c = compile_parallel(nl, {});
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);

    LoadedKernel kernel;
    const std::string base = "/tmp/udsim_" + name;
    if (!build_shared(c.program, base, kernel)) {
      std::printf("  (failed to build/load %s; skipping)\n", name.c_str());
      continue;
    }

    // Bit-exact agreement check over a short prefix.
    KernelRunner<std::uint32_t> runner(c.program);
    std::vector<std::uint32_t> in(w.inputs);
    bool agree = true;
    for (std::size_t v = 0; v < std::min<std::size_t>(w.vectors, 50); ++v) {
      for (std::size_t i = 0; i < w.inputs; ++i) in[i] = w.bits[v * w.inputs + i];
      runner.run(in);
      kernel.step(in.data());
      for (std::uint32_t a = 0; a < c.program.arena_words && agree; ++a) {
        agree = runner.word(a) == kernel.arena[a];
      }
    }

    std::vector<std::uint32_t> all(w.inputs * w.vectors);
    for (std::size_t v = 0; v < w.vectors; ++v) {
      for (std::size_t i = 0; i < w.inputs; ++i) {
        all[v * w.inputs + i] = w.bits[v * w.inputs + i];
      }
    }
    const double t_exec = time_compiled<std::uint32_t>(c.program, w, args.trials);
    const double t_c = median_seconds(
        [&] {
          for (std::size_t v = 0; v < w.vectors; ++v) {
            kernel.step(all.data() + v * w.inputs);
          }
        },
        args.trials);
    table.add_row({name, Table::num(us_per_vec(t_exec, w.vectors)),
                   Table::num(us_per_vec(t_c, w.vectors)),
                   Table::num(t_c / t_exec, 2), agree ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf("\n(The executor substitutes for the paper's compiled C; this "
              "table shows the two agree bit-for-bit and how their speeds "
              "compare on this host.)\n");
  return 0;
}
