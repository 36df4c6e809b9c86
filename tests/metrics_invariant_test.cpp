// Metrics-driven regression harness (ISSUE: observability layer).
//
// The counters are exact by construction — a straight-line program executes
// every op on every pass — so they double as correctness oracles:
//
//   1. exec.ops == compile.ops × sim.vectors, for random DAGs and for every
//      ISCAS-85 profile, across the compiled engines.
//   2. Shift-site ledger: retained + eliminated == total, the total matches
//      an independent structural recomputation from the netlist, and the
//      retained count matches the emitter's own tally.
//   3. run_batch payload counters are identical for 1, 2 and 5 worker
//      threads (seam-replay cost is attributed to batch.* separately).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "gen/random_dag.h"
#include "obs/metrics.h"
#include "parsim/parallel_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

std::vector<Bit> make_vectors(const Netlist& nl, std::size_t count) {
  std::vector<Bit> bits(count * nl.primary_inputs().size());
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (Bit& b : bits) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Bit>(x & 1);
  }
  return bits;
}

/// Drive `count` vectors through step() and check the dynamic-counter
/// identity against the compile-shape counters in the same registry.
/// `word_bits` follows the dispatch_width convention (0 = 32-bit default).
void check_step_identity(const Netlist& nl, EngineKind kind, std::size_t count,
                         int word_bits = 0) {
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  auto sim = make_simulator(nl, kind, guard, word_bits);
  const std::vector<Bit> bits = make_vectors(nl, count);
  const std::size_t pis = nl.primary_inputs().size();
  for (std::size_t v = 0; v < count; ++v) {
    sim->step(std::span<const Bit>(bits).subspan(v * pis, pis));
  }
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.contains("compile.ops")) << engine_name(kind);
  ASSERT_TRUE(snap.contains("exec.ops")) << engine_name(kind);
  EXPECT_EQ(snap.at("sim.vectors"), count) << engine_name(kind);
  EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * count)
      << engine_name(kind) << " on " << nl.name();
  // Every op writes its destination word exactly once per pass.
  EXPECT_EQ(snap.at("exec.words_written"), snap.at("compile.ops") * count);
  // The compile traced its phases into the same registry.
  EXPECT_EQ(snap.at("compile.programs"), 1u);
  EXPECT_GE(snap.at("compile.total.calls"), 1u);
  EXPECT_GE(snap.at("compile.emit.calls"), 1u);
}

constexpr EngineKind kProfileEngines[] = {
    EngineKind::ParallelCombined, EngineKind::PCSet, EngineKind::ZeroDelayLcc};

class MetricsProfileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MetricsProfileTest, ExecutedOpsEqualStaticOpsTimesVectors) {
  const Netlist nl = make_iscas85_like(GetParam());
  for (EngineKind kind : kProfileEngines) {
    check_step_identity(nl, kind, 6);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIscas85, MetricsProfileTest,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"),
                         [](const auto& info) { return info.param; });

TEST(MetricsInvariant, ExecIdentityHoldsAtEveryLaneWidth) {
  // The counters are exact at 128/256-bit lanes too: lane width changes the
  // word type under the ops, never the op stream length (DESIGN.md §5j).
  for (const char* name : {"c432", "c880"}) {
    const Netlist nl = make_iscas85_like(name);
    for (int w : supported_widths()) {
      for (EngineKind kind : kProfileEngines) {
        check_step_identity(nl, kind, 4, w);
      }
    }
  }
}

TEST(MetricsInvariant, RandomDagsAcrossParallelVariants) {
  constexpr EngineKind kParallelKinds[] = {
      EngineKind::Parallel, EngineKind::ParallelTrimmed,
      EngineKind::ParallelPathTracing, EngineKind::ParallelCycleBreaking,
      EngineKind::ParallelCombined};
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    RandomDagParams params;
    params.name = "mdag" + std::to_string(seed);
    params.inputs = 12;
    params.outputs = 6;
    params.gates = 150;
    params.depth = 11;
    params.seed = seed;
    const Netlist nl = random_dag(params);
    for (EngineKind kind : kParallelKinds) {
      check_step_identity(nl, kind, 5);
    }
  }
}

TEST(MetricsInvariant, EventEnginesCountVectorsAndEvals) {
  const Netlist nl = test::fig4_network();
  MetricsRegistry reg;
  auto sim = make_simulator(nl, EngineKind::Event2);
  sim->set_metrics(&reg);
  const std::vector<Bit> v1{1, 1, 1};
  const std::vector<Bit> v2{0, 1, 1};
  sim->step(v1);
  sim->step(v2);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("sim.vectors"), 2u);
  EXPECT_GT(snap.at("event.gate_evals"), 0u);
  EXPECT_GT(snap.at("event.events"), 0u);
}

/// Independent structural recomputation of the shift-site total: one site
/// per distinct (gate, input net) pair plus one output site per
/// non-constant gate. The compiler must report the same universe no matter
/// which alignment it chose.
std::uint64_t structural_shift_sites(const Netlist& nl) {
  std::uint64_t total = 0;
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& g = nl.gate(GateId{gi});
    if (is_constant(g.type)) continue;
    std::vector<std::uint32_t> seen;
    for (NetId in : g.inputs) {
      if (std::find(seen.begin(), seen.end(), in.value) != seen.end()) continue;
      seen.push_back(in.value);
      ++total;
    }
    ++total;
  }
  return total;
}

TEST(MetricsInvariant, ShiftSiteLedgerBalances) {
  std::vector<Netlist> circuits;
  circuits.push_back(test::fig11_network());
  circuits.push_back(test::unbalanced_reconvergence(4));
  circuits.push_back(make_iscas85_like("c432"));
  circuits.push_back(make_iscas85_like("c1355"));
  for (const Netlist& nl : circuits) {
    for (ShiftElim elim : {ShiftElim::None, ShiftElim::PathTracing,
                           ShiftElim::CycleBreaking}) {
      MetricsRegistry reg;
      const CompileGuard guard{CompileBudget{}, nullptr, &reg};
      ParallelOptions options;
      options.shift_elim = elim;
      const ParallelCompiled compiled = compile_parallel(nl, options, guard);
      const auto snap = reg.snapshot();
      const std::uint64_t total = snap.at("compile.shift_sites_total");
      const std::uint64_t retained = snap.at("compile.shift_sites_retained");
      const std::uint64_t eliminated = snap.at("compile.shift_sites_eliminated");
      EXPECT_EQ(retained + eliminated, total) << nl.name();
      EXPECT_EQ(total, structural_shift_sites(nl)) << nl.name();
      // The counter layer and the emitter tally retained sites
      // independently; they must agree.
      EXPECT_EQ(retained, compiled.stats.shift_sites) << nl.name();
    }
  }
}

TEST(MetricsInvariant, UnoptimizedModeRetainsEveryOutputSite) {
  // Paper §3: the unoptimized technique shifts after *every* gate, so every
  // output site is retained and no input site is (alignment = level - 1 on
  // every input path... except reconvergence keeps input shifts too). The
  // weaker, always-true statement: path tracing never retains more sites
  // than the unoptimized alignment.
  const Netlist nl = make_iscas85_like("c880");
  auto retained_for = [&](ShiftElim elim) {
    MetricsRegistry reg;
    const CompileGuard guard{CompileBudget{}, nullptr, &reg};
    ParallelOptions options;
    options.shift_elim = elim;
    (void)compile_parallel(nl, options, guard);
    return reg.snapshot().at("compile.shift_sites_retained");
  };
  EXPECT_LE(retained_for(ShiftElim::PathTracing), retained_for(ShiftElim::None));
}

/// Payload counters must be identical for every thread count; only batch.*
/// (seam replay, shard timings) and *.ns keys may differ.
std::map<std::string, std::uint64_t> filtered_snapshot(const MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : reg.snapshot()) {
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, ".ns") == 0) continue;
    if (name.rfind("batch.", 0) == 0) continue;
    out.emplace(name, value);
  }
  return out;
}

TEST(MetricsInvariant, BatchCountersAreThreadCountInvariant) {
  RandomDagParams params;
  params.name = "mbatch";
  params.inputs = 10;
  params.outputs = 5;
  params.gates = 120;
  params.depth = 9;
  const Netlist nl = random_dag(params);
  constexpr std::size_t kVectors = 90;  // 5 shards materialize at min_chunk 16
  const std::vector<Bit> bits = make_vectors(nl, kVectors);

  for (EngineKind kind : kProfileEngines) {
    MetricsRegistry compile_reg;
    const CompileGuard guard{CompileBudget{}, nullptr, &compile_reg};
    auto sim = make_simulator(nl, kind, guard);
    const std::uint64_t static_ops = compile_reg.snapshot().at("compile.ops");
    // Zero-delay LCC packs one vector per lane of its 32-bit words (3
    // passes, 3 seamless shards); the others run one vector per pass.
    const bool packed = kind == EngineKind::ZeroDelayLcc;
    const std::uint64_t lanes = packed ? 32 : 1;
    const std::uint64_t passes = (kVectors + lanes - 1) / lanes;

    std::map<std::string, std::uint64_t> reference;
    for (unsigned threads : {1u, 2u, 5u}) {
      MetricsRegistry reg;
      sim->set_metrics(&reg);
      const BatchResult r = sim->run_batch(bits, threads);
      EXPECT_EQ(r.vectors, kVectors);
      const auto snap = filtered_snapshot(reg);
      EXPECT_EQ(snap.at("sim.vectors"), kVectors) << engine_name(kind);
      const auto full = reg.snapshot();
      EXPECT_EQ(full.at("batch.passes"), passes) << engine_name(kind);
      EXPECT_EQ(full.at("batch.lanes"), lanes) << engine_name(kind);
      EXPECT_EQ(snap.at("exec.ops"), static_ops * full.at("batch.passes"))
          << engine_name(kind);
      if (threads == 1) {
        reference = snap;
      } else {
        EXPECT_EQ(snap, reference)
            << engine_name(kind) << " at " << threads << " threads";
      }
      // The sharding cost is visible, just attributed separately.
      EXPECT_EQ(full.at("batch.runs"), 1u);
      if (threads == 5) {
        EXPECT_EQ(full.at("batch.shards"), packed ? 3u : 5u);
        EXPECT_EQ(reg.counter("batch.seam_vectors").value(), packed ? 0u : 4u);
        EXPECT_EQ(reg.counter("batch.seam_ops").value(),
                  packed ? 0u : static_ops * 4);
      }
    }
  }
}

TEST(MetricsInvariant, DisabledMetricsLeaveNoTrace) {
  const Netlist nl = test::fig4_network();
  auto sim = make_simulator(nl, EngineKind::ParallelCombined);
  EXPECT_EQ(sim->metrics(), nullptr);
  const std::vector<Bit> v{1, 0, 1};
  sim->step(v);  // must not crash without a registry
  MetricsRegistry reg;
  sim->set_metrics(&reg);
  sim->step(v);
  EXPECT_EQ(reg.counter("sim.vectors").value(), 1u);
  sim->set_metrics(nullptr);
  sim->step(v);
  EXPECT_EQ(reg.counter("sim.vectors").value(), 1u);  // detached: unchanged
}

TEST(MetricsInvariant, TrimmingExtrasScaleWithVectors) {
  const Netlist nl = make_iscas85_like("c880");
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  auto sim = make_simulator(nl, EngineKind::ParallelCombined, guard);
  const std::vector<Bit> bits = make_vectors(nl, 3);
  const std::size_t pis = nl.primary_inputs().size();
  for (std::size_t v = 0; v < 3; ++v) {
    sim->step(std::span<const Bit>(bits).subspan(v * pis, pis));
  }
  const auto snap = reg.snapshot();
  // Per-pass extras follow the same static × passes law.
  EXPECT_EQ(snap.at("exec.trimmed_stores_skipped"),
            snap.at("compile.suppressed_stores") * 3);
  EXPECT_EQ(snap.at("exec.gap_words_filled"), snap.at("compile.words_gap") * 3);
}

}  // namespace
}  // namespace udsim
