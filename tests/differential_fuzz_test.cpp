// Seeded cross-engine differential fuzz harness.
//
// For N random circuits × random vector streams, every EngineKind must agree
// with OracleSim on all primary-output settled values, and the batch layer
// must agree with the per-step facade. Each case is derived deterministically
// from one seed; on mismatch the failure message carries the seed, the
// generator parameters, and the full netlist in `.bench` syntax, so any
// failure reproduces with a one-line unit test.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/random_dag.h"
#include "gen/rng.h"
#include "harness/vectors.h"
#include "native/native_sim.h"
#include "netlist/bench_io.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"

namespace udsim {
namespace {

constexpr EngineKind kAllEngines[] = {
    EngineKind::Event2,
    EngineKind::Event3,
    EngineKind::PCSet,
    EngineKind::Parallel,
    EngineKind::ParallelTrimmed,
    EngineKind::ParallelPathTracing,
    EngineKind::ParallelCycleBreaking,
    EngineKind::ParallelCombined,
    EngineKind::ZeroDelayLcc,
};

RandomDagParams fuzz_params(std::uint64_t seed) {
  Rng r(seed * 0x9e3779b97f4a7c15ull + 1);
  RandomDagParams p;
  p.name = "fuzz" + std::to_string(seed);
  p.inputs = 3 + r.below(8);
  p.outputs = 2 + r.below(4);
  p.depth = 3 + static_cast<int>(r.below(8));
  p.gates = static_cast<std::size_t>(p.depth) + 8 + r.below(70);
  p.seed = seed;
  p.reach = 1.0 + r.uniform() * 2.0;
  p.xor_fraction = r.uniform() * 0.3;
  p.inv_fraction = r.uniform() * 0.3;
  p.tree_bias = 0.3 + r.uniform() * 0.6;
  p.max_fanin = 2 + static_cast<int>(r.below(3));
  // Every fifth case exercises the multi-delay timing model.
  p.max_delay = (seed % 5 == 0) ? 2 + static_cast<int>(r.below(2)) : 1;
  return p;
}

std::string describe(std::uint64_t seed, const RandomDagParams& p,
                     const Netlist& nl) {
  std::ostringstream os;
  os << "fuzz seed " << seed << " (inputs=" << p.inputs << " outputs="
     << p.outputs << " gates=" << p.gates << " depth=" << p.depth
     << " reach=" << p.reach << " max_delay=" << p.max_delay << ")\n"
     << "--- netlist ---\n";
  write_bench(os, nl);
  os << "--- end netlist ---";
  return os.str();
}

/// One fuzz case. Returns false after reporting the first mismatch so a
/// broken engine produces one readable dump per seed, not thousands.
bool run_case(std::uint64_t seed) {
  const RandomDagParams params = fuzz_params(seed);
  const Netlist nl = random_dag(params);
  const std::size_t pis = nl.primary_inputs().size();

  OracleSim oracle(nl);
  std::vector<std::unique_ptr<Simulator>> sims;
  for (EngineKind k : kAllEngines) sims.push_back(make_simulator(nl, k));

  Rng r(seed ^ 0xfeedface);
  const std::size_t vectors = 5 + r.below(6);
  RandomVectorSource src(pis, seed + 0x5151);
  std::vector<Bit> flat(pis * vectors);
  for (std::size_t v = 0; v < vectors; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }

  // Oracle-vs-engine settled values, vector by vector.
  std::vector<Bit> oracle_finals;  // row-major vectors × POs
  for (std::size_t v = 0; v < vectors; ++v) {
    const std::span<const Bit> row(flat.data() + v * pis, pis);
    const Waveform wf = oracle.step(row);
    for (auto& s : sims) s->step(row);
    for (NetId po : nl.primary_outputs()) {
      const Bit expect = wf.final_value(po);
      oracle_finals.push_back(expect);
      for (auto& s : sims) {
        const Bit got = s->final_value(po);
        if (got != expect) {
          ADD_FAILURE() << "engine '" << engine_name(s->kind())
                        << "' disagrees with oracle on net '" << nl.net(po).name
                        << "' at vector " << v << ": got " << int(got)
                        << ", expected " << int(expect) << "\n"
                        << describe(seed, params, nl);
          return false;
        }
      }
    }
  }

  // Batch layer: one engine kind per case (rotating), sharded across a
  // seed-dependent thread count, must reproduce the oracle stream exactly.
  const EngineKind bk = kAllEngines[seed % std::size(kAllEngines)];
  const auto batch_sim = make_simulator(nl, bk);
  const BatchResult br = batch_sim->run_batch(flat, 1 + seed % 4);
  if (br.values != oracle_finals) {
    ADD_FAILURE() << "run_batch(" << engine_name(bk) << ", threads="
                  << 1 + seed % 4 << ") disagrees with oracle stream\n"
                  << describe(seed, params, nl);
    return false;
  }
  return true;
}

TEST(DifferentialFuzz, AllEnginesAgreeWithOracleOnRandomCircuits) {
  // Fixed seed range: failures name the exact seed, and
  //   run_case(<seed>)
  // in isolation reproduces them.
  for (std::uint64_t seed = 1000; seed < 1040; ++seed) {
    if (!run_case(seed)) break;  // one readable dump, not forty
  }
}

TEST(DifferentialFuzz, NativeBackendAgreesWithOracleOnRandomCircuits) {
  // Native leg of the fuzz harness (DESIGN.md §5h): the dlopen'd machine
  // code must agree with OracleSim on the same seeded random DAGs the IR
  // engines are fuzzed with. Fewer seeds than the IR sweep — each case
  // shells out to the C compiler — but the same reproduction contract: a
  // failure names the seed, the netlist, and the emitted C file.
  NativeOptions opts;
  opts.compile_flags = "-O0";
  opts.keep_source = true;
  if (!native_available(opts)) {
    GTEST_SKIP() << "no usable C compiler (UDSIM_CC) on this machine";
  }
  for (std::uint64_t seed = 1000; seed < 1006; ++seed) {
    const RandomDagParams params = fuzz_params(seed);
    const Netlist nl = random_dag(params);
    OracleSim oracle(nl);
    NativeSimulator native(nl, opts);
    RandomVectorSource src(nl.primary_inputs().size(), seed + 0x5151);
    std::vector<Bit> row(nl.primary_inputs().size());
    for (int v = 0; v < 6; ++v) {
      src.next(row);
      const Waveform wf = oracle.step(row);
      native.step(row);
      for (NetId po : nl.primary_outputs()) {
        ASSERT_EQ(wf.final_value(po), native.final_value(po))
            << "native backend disagrees with oracle on net '"
            << nl.net(po).name << "' at vector " << v << "\n"
            << "emitted C: " << native.module().source_path() << "\n"
            << describe(seed, params, nl);
      }
    }
  }
}

TEST(DifferentialFuzz, WideLanesAgreeWithOracleOnRandomCircuits) {
  // Wide-word leg (DESIGN.md §5j): the compiled engines at every dispatched
  // lane width — zero-delay LCC's run_batch filling every lane with an
  // independent vector, also sharded over threads — must reproduce the
  // oracle stream on seeded random DAGs. Failures name the seed, the width,
  // and the full netlist.
  const std::vector<int> widths = supported_widths();
  constexpr EngineKind kWideEngines[] = {
      EngineKind::ZeroDelayLcc, EngineKind::PCSet, EngineKind::ParallelCombined};
  for (std::uint64_t seed = 2000; seed < 2012; ++seed) {
    const RandomDagParams params = fuzz_params(seed);
    const Netlist nl = random_dag(params);
    const std::size_t pis = nl.primary_inputs().size();

    Rng r(seed ^ 0xfeedface);
    const std::size_t vectors = 5 + r.below(6);
    RandomVectorSource src(pis, seed + 0x5151);
    std::vector<Bit> flat(pis * vectors);
    for (std::size_t v = 0; v < vectors; ++v) {
      src.next(std::span<Bit>(flat.data() + v * pis, pis));
    }

    OracleSim oracle(nl);
    std::vector<Bit> expect;  // row-major vectors × POs
    for (std::size_t v = 0; v < vectors; ++v) {
      const Waveform wf = oracle.step(
          std::span<const Bit>(flat.data() + v * pis, pis));
      for (NetId po : nl.primary_outputs()) expect.push_back(wf.final_value(po));
    }

    for (int w : widths) {
      for (EngineKind k : kWideEngines) {
        const auto sim = make_simulator(nl, k, w);
        const BatchResult br = sim->run_batch(flat, 1);
        ASSERT_EQ(br.values, expect)
            << "engine '" << engine_name(k) << "' at " << w
            << "-bit lanes disagrees with oracle\n"
            << describe(seed, params, nl);
      }
      const auto lcc = make_simulator(nl, EngineKind::ZeroDelayLcc, w);
      MetricsRegistry reg;
      const BatchResult pr =
          lcc->run_batch(flat, BatchRunOptions{.num_threads = 2, .metrics = &reg});
      ASSERT_EQ(pr.values, expect)
          << "packed LCC at " << w << "-bit lanes disagrees with oracle\n"
          << describe(seed, params, nl);
      EXPECT_EQ(reg.counter("batch.passes").value(),
                (vectors + static_cast<std::size_t>(w) - 1) /
                    static_cast<std::size_t>(w));
    }
  }
}

TEST(DifferentialFuzz, WideShallowAndNarrowDeepExtremes) {
  // Structural extremes the uniform sampler rarely hits.
  for (std::uint64_t seed : {7001ull, 7002ull, 7003ull, 7004ull}) {
    RandomDagParams p = fuzz_params(seed);
    if (seed % 2 == 0) {
      p.inputs = 24;
      p.depth = 3;
      p.gates = 120;
    } else {
      p.inputs = 3;
      p.depth = 14;
      p.gates = 40;
      p.reach = 3.0;
    }
    const Netlist nl = random_dag(p);
    OracleSim oracle(nl);
    std::vector<std::unique_ptr<Simulator>> sims;
    for (EngineKind k : kAllEngines) sims.push_back(make_simulator(nl, k));
    RandomVectorSource src(nl.primary_inputs().size(), seed);
    std::vector<Bit> row(nl.primary_inputs().size());
    for (int v = 0; v < 8; ++v) {
      src.next(row);
      const Waveform wf = oracle.step(row);
      for (auto& s : sims) {
        s->step(row);
        for (NetId po : nl.primary_outputs()) {
          ASSERT_EQ(wf.final_value(po), s->final_value(po))
              << engine_name(s->kind()) << " vector " << v << "\n"
              << describe(seed, p, nl);
        }
      }
    }
  }
}

}  // namespace
}  // namespace udsim
