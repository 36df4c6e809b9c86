// Cross-width differential matrix (DESIGN.md §5j) — the lockdown for the
// SIMD-wide executors: every ISCAS-85 profile × production compiled engine
// × dispatched lane width must be bit-identical to the interpreted oracle
// (and hence to the historical 32-bit path), with the exact-counter
// invariant exec.ops == compile.ops × batch.passes holding at every width.
// Zero-delay LCC's run_batch must reproduce the same rows while retiring
// word_bits vectors per pass — lanes as shards at every width, thread count
// and tail length — and so must PC-set's stateful lanes, whose retained
// state the PRINT-grid probes of lane_matrix.h observe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/kernel_runner.h"
#include "core/batch_runner.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "harness/vectors.h"
#include "ir/program.h"
#include "ir/wide_word.h"
#include "lane_matrix.h"
#include "lcc/lcc.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"

namespace udsim {
namespace {

constexpr EngineKind kCompiledEngines[] = {
    EngineKind::ZeroDelayLcc, EngineKind::PCSet, EngineKind::ParallelCombined};

std::vector<Bit> make_stream(const Netlist& nl, std::size_t count,
                             std::uint64_t seed) {
  RandomVectorSource src(nl.primary_inputs().size(), seed);
  std::vector<Bit> flat(count * nl.primary_inputs().size());
  const std::size_t pis = nl.primary_inputs().size();
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  return flat;
}

/// Oracle settled outputs for the stream, row-major (the same layout
/// BatchResult::values uses).
std::vector<Bit> oracle_rows(const Netlist& nl, std::span<const Bit> flat,
                             std::size_t count) {
  OracleSim oracle(nl);
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> rows;
  rows.reserve(count * nl.primary_outputs().size());
  for (std::size_t v = 0; v < count; ++v) {
    const Waveform wf = oracle.step(flat.subspan(v * pis, pis));
    for (NetId po : nl.primary_outputs()) rows.push_back(wf.final_value(po));
  }
  return rows;
}

class WidthMatrixTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { ::unsetenv("UDSIM_FORCE_WIDTH"); }
};

TEST_P(WidthMatrixTest, EveryEngineAndWidthMatchesTheOracle) {
  constexpr std::size_t kVectors = 8;
  const Netlist nl = make_iscas85_like(GetParam());
  const std::vector<Bit> flat = make_stream(nl, kVectors, 0xa5a5ull);
  const std::vector<Bit> expect = oracle_rows(nl, flat, kVectors);

  for (int w : supported_widths()) {
    for (EngineKind kind : kCompiledEngines) {
      MetricsRegistry reg;
      const CompileGuard guard{CompileBudget{}, nullptr, &reg};
      const auto sim = make_simulator(nl, kind, guard, w);
      ASSERT_NE(sim->compiled_program(), nullptr);
      ASSERT_EQ(sim->compiled_program()->word_bits, w)
          << engine_name(kind) << " did not dispatch at " << w << " bits";

      const BatchResult r = sim->run_batch(flat, 1);
      ASSERT_EQ(r.values, expect)
          << GetParam() << " × " << engine_name(kind) << " × " << w
          << "-bit lanes diverges from the oracle";

      // The counters stay exact at every width: a straight-line program
      // executes every op on every pass, whatever the lane width. LCC's and
      // PC-set's run_batch settle w vectors per pass.
      const auto snap = reg.snapshot();
      ASSERT_TRUE(snap.contains("compile.ops"));
      EXPECT_EQ(snap.at("sim.vectors"), kVectors)
          << engine_name(kind) << " @ " << w;
      const bool packed =
          kind == EngineKind::ZeroDelayLcc || kind == EngineKind::PCSet;
      const std::size_t lanes = packed ? static_cast<std::size_t>(w) : 1;
      EXPECT_EQ(snap.at("batch.passes"), (kVectors + lanes - 1) / lanes)
          << engine_name(kind) << " @ " << w;
      EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * snap.at("batch.passes"))
          << engine_name(kind) << " @ " << w;
      EXPECT_EQ(snap.at("dispatch.width"), static_cast<std::uint64_t>(w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIscas85, WidthMatrixTest,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"),
                         [](const auto& info) { return info.param; });

TEST(WidthMatrix, WideBatchIsThreadCountInvariant) {
  // Seam replay at wide words: the sharded batch layer must reproduce the
  // sequential rows for every thread count at every width (the seam pass
  // reconstructs retained state in the wide arena).
  ::unsetenv("UDSIM_FORCE_WIDTH");
  constexpr std::size_t kVectors = 70;  // several shards at min_chunk 16
  const Netlist nl = make_iscas85_like("c880");
  const std::vector<Bit> flat = make_stream(nl, kVectors, 0x5151ull);
  for (int w : supported_widths()) {
    const auto sim = make_simulator(nl, EngineKind::ParallelCombined, w);
    const BatchResult seq = sim->run_batch(flat, 1);
    for (unsigned threads : {2u, 4u}) {
      const BatchResult par = sim->run_batch(flat, threads);
      EXPECT_EQ(par.values, seq.values)
          << w << "-bit lanes, " << threads << " threads";
    }
  }
}

TEST(WidthMatrix, PackedRunnerMatchesScalarRowsAtEveryWidth) {
  // Lane independence: word_bits concurrent vectors per pass settle to the
  // same rows the scalar path produces one vector at a time.
  ::unsetenv("UDSIM_FORCE_WIDTH");
  for (const char* name : {"c432", "c880", "c1355"}) {
    const Netlist nl = make_iscas85_like(name);
    // Deliberately not a multiple of any lane count: the tail pass runs
    // partially filled.
    constexpr std::size_t kVectors = 70;
    const std::vector<Bit> flat = make_stream(nl, kVectors, 0x77ull);
    const std::vector<Bit> expect = oracle_rows(nl, flat, kVectors);
    for (int w : supported_widths()) {
      const auto sim = make_simulator(nl, EngineKind::ZeroDelayLcc, w);
      MetricsRegistry reg;
      const BatchResult r =
          sim->run_batch(flat, BatchRunOptions{.num_threads = 1, .metrics = &reg});
      EXPECT_EQ(sim->compiled_program()->word_bits, w);
      EXPECT_EQ(r.vectors, kVectors);
      EXPECT_EQ(reg.counter("batch.passes").value(),
                (kVectors + static_cast<std::size_t>(w) - 1) /
                    static_cast<std::size_t>(w))
          << "one pass settles word_bits vectors";
      ASSERT_EQ(r.values, expect)
          << name << " packed @ " << w << "-bit lanes diverges";
      EXPECT_EQ(reg.counter("batch.lanes").value(),
                static_cast<std::uint64_t>(w));
      EXPECT_EQ(reg.counter("sim.vectors").value(), kVectors);
    }
  }
}

TEST(WidthMatrix, LccRunBatchPacksAtEveryWidthThreadCountAndTail) {
  // Every width × threads {1, 2, 5} × tail shape: rows equal the oracle and
  // a scalar (single-bit-load) LCC BatchRunner run; passes == ceil(n / w).
  ::unsetenv("UDSIM_FORCE_WIDTH");
  const Netlist nl = make_iscas85_like("c432");
  const std::size_t pis = nl.primary_inputs().size();
  const std::size_t widest = static_cast<std::size_t>(widest_width());
  const std::size_t max_count = 3 * widest + 5;
  const std::vector<Bit> flat = make_stream(nl, max_count, 0x3131ull);
  const std::vector<Bit> oracle = oracle_rows(nl, flat, max_count);
  const std::size_t cols = nl.primary_outputs().size();
  const LccCompiled scalar = compile_lcc(nl);
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) probes.push_back({scalar.net_var[po.value], 0});

  for (int w : supported_widths()) {
    MetricsRegistry compile_reg;
    const CompileGuard guard{CompileBudget{}, nullptr, &compile_reg};
    const auto sim = make_simulator(nl, EngineKind::ZeroDelayLcc, guard, w);
    const std::uint64_t static_ops = compile_reg.counter("compile.ops").value();
    const std::size_t lanes = static_cast<std::size_t>(w);
    for (unsigned nt : {1u, 2u, 5u}) {
      BatchRunner reference(scalar.program, probes, BatchOptions{.num_threads = nt});
      ASSERT_EQ(reference.lanes(), 1u);
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, lanes - 1, lanes,
                            lanes + 1, 3 * lanes + 5}) {
        const std::span<const Bit> stream(flat.data(), n * pis);
        MetricsRegistry reg;
        const BatchResult r =
            sim->run_batch(stream, BatchRunOptions{.num_threads = nt, .metrics = &reg});
        const std::vector<Bit> expect(oracle.begin(),
                                      oracle.begin() + static_cast<std::ptrdiff_t>(n * cols));
        ASSERT_EQ(r.values, expect) << w << "-bit lanes, " << nt << " threads, n=" << n;
        ASSERT_EQ(reference.run(stream, n), expect)
            << "scalar LCC, " << nt << " threads, n=" << n;
        const std::uint64_t passes = (n + lanes - 1) / lanes;
        EXPECT_EQ(reg.counter("batch.passes").value(), passes) << w << "/" << n;
        EXPECT_EQ(reg.counter("sim.vectors").value(), n) << w << "/" << n;
        EXPECT_EQ(reg.counter("exec.ops").value(), static_ops * passes) << w << "/" << n;
      }
    }
  }
}

/// Save a mid-stream arena into the uint64 carrier, restore it into a fresh
/// runner, continue both — every probe and the whole arena must agree.
template <class Word>
void roundtrip_arena_at(const Netlist& nl) {
  const int bits = static_cast<int>(sizeof(Word) * 8);
  const LccCompiled c = compile_lcc(nl, /*packed=*/false, bits);
  KernelRunner<Word> live(c.program);
  RandomVectorSource src(nl.primary_inputs().size(), 0x42);
  std::vector<Bit> row(nl.primary_inputs().size());
  std::vector<Word> in(nl.primary_inputs().size());
  const auto advance = [&](KernelRunner<Word>* a, KernelRunner<Word>* b) {
    src.next(row);
    for (std::size_t i = 0; i < row.size(); ++i) {
      in[i] = static_cast<Word>(static_cast<std::uint64_t>(row[i] & 1u));
    }
    if (a) a->run(in);
    if (b) b->run(in);
  };
  for (int v = 0; v < 4; ++v) advance(&live, nullptr);

  std::vector<std::uint64_t> saved;
  live.save_arena(saved);
  ASSERT_EQ(saved.size(), c.program.arena_words * kWordU64Lanes<Word>)
      << bits << "-bit words carry " << kWordU64Lanes<Word> << " lanes each";
  KernelRunner<Word> restored(c.program);
  restored.load_arena(saved);

  for (int v = 0; v < 3; ++v) advance(&live, &restored);
  for (NetId po : nl.primary_outputs()) {
    const std::uint32_t var = c.net_var[po.value];
    EXPECT_EQ(live.bit(var, 0), restored.bit(var, 0))
        << bits << "-bit lanes, net " << nl.net(po).name;
  }
  std::vector<std::uint64_t> a, b;
  live.save_arena(a);
  restored.save_arena(b);
  EXPECT_EQ(a, b) << bits << "-bit arenas diverged after restore";
}

TEST(WidthMatrix, CheckpointCarrierRoundTripsWideArenas) {
  // The uint64 carrier holds word_bits/64 lanes per arena word; a runner
  // restored from a wide snapshot must continue bit-identically.
  ::unsetenv("UDSIM_FORCE_WIDTH");
  const Netlist nl = make_iscas85_like("c432");
  roundtrip_arena_at<std::uint32_t>(nl);
  roundtrip_arena_at<std::uint64_t>(nl);
#if UDSIM_HAS_W128
  if (width_available(128)) roundtrip_arena_at<u128>(nl);
#endif
  if (width_available(256)) roundtrip_arena_at<u256>(nl);
}

TEST(WidthMatrix, StatefulLanesMatchTheOracleAtEveryWidth) {
  // PC-set at the wide words (32-bit: stateful_lanes_test.cpp): lane k of a
  // pass carries chunk k of a shard, for every vector count of the matrix
  // and threads {1, 2, 5}, on the PRINT grid and through the facade.
  ::unsetenv("UDSIM_FORCE_WIDTH");
  for (const char* name : {"c432", "c880", "c1908"}) {
    const Netlist nl = make_iscas85_like(name);
    for (int w : supported_widths()) {
      if (w == 32) continue;
      const std::size_t lanes = static_cast<std::size_t>(w);
      const std::vector<std::size_t> counts = test::lane_matrix_counts(lanes);
      const std::size_t longest = *std::max_element(counts.begin(), counts.end());
      const std::vector<Bit> flat = test::lane_stream(nl, longest, 0x600d + lanes);
      const test::WaveCase c = test::make_wave_case(nl, w);
      const std::vector<Bit> wave = test::wave_expect(nl, c, flat, longest);
      const auto sim = make_simulator(nl, EngineKind::PCSet, w);
      ASSERT_EQ(sim->compiled_program()->word_bits, w);
      const std::vector<Bit> finals = test::oracle_final_rows(nl, flat, longest);
      for (std::size_t n : counts) {
        for (unsigned nt : {1u, 2u, 5u}) {
          const std::string what = std::string(name) + " @ " + std::to_string(w) +
                                   " n=" + std::to_string(n) +
                                   " threads=" + std::to_string(nt);
          test::expect_wave_batch(c, flat, n, wave, nt, what);
          test::expect_facade_batch(*sim, flat, n, finals, nt, what);
        }
      }
    }
  }
}

TEST(WidthMatrix, StatefulLanesResumeMidShardAtEveryWidth) {
  // A deadline on the second pass of the first shard checkpoints every lane
  // of the wide arena; the resumed run equals the uninterrupted one.
  ::unsetenv("UDSIM_FORCE_WIDTH");
  const Netlist nl = make_iscas85_like("c880");
  for (int w : supported_widths()) {
    const std::size_t lanes = static_cast<std::size_t>(w);
    const std::size_t count = 3 * lanes + 5;
    const std::vector<Bit> flat = test::lane_stream(nl, count, 0x7e57 + lanes);
    const test::WaveCase c = test::make_wave_case(nl, w);
    const std::vector<Bit> expect = test::wave_expect(nl, c, flat, count);
    for (unsigned nt : {1u, 2u, 5u}) {
      const BatchOptions base{.num_threads = nt, .min_chunk = 1};
      // Shard 0 holds at least one of the four passes; with two or more its
      // chunks are long enough to stop on the second pass, else the stop
      // lands on its only pass.
      const std::size_t shards = BatchRunner(c.pc.program, c.probes, base).shard_count(count);
      const std::size_t own = 4 / shards + (4 % shards != 0 ? 1 : 0);
      const std::size_t chunk = own;  // shard 0 spans own * lanes vectors
      const std::size_t stop_at = own >= 2 ? chunk + 1 : 0;
      FaultInjector inject(21);
      inject.add_site({FaultSite::DeadlineOverrun, 0, stop_at, 0});
      BatchOptions interrupted = base;
      interrupted.inject = &inject;
      BatchRunner first(c.pc.program, c.probes, interrupted);
      const ResilientBatch stopped = first.run_resilient(flat, count);
      ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired) << w << "/" << nt;
      EXPECT_EQ(stopped.checkpoint.lanes, lanes);
      EXPECT_EQ(stopped.checkpoint.shards[0].passes, own >= 2 ? 1u : 0u);
      const BatchCheckpoint reloaded =
          checkpoint_from_bytes(checkpoint_to_bytes(stopped.checkpoint));
      BatchRunner second(c.pc.program, c.probes, base);
      const ResilientBatch resumed = second.run_resilient(flat, count, &reloaded);
      ASSERT_EQ(resumed.status, RunStatus::Complete);
      EXPECT_EQ(resumed.values, expect) << w << "-bit lanes, " << nt << " threads";
    }
  }
}

}  // namespace
}  // namespace udsim
