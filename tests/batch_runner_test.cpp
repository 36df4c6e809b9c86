// Batch-layer determinism properties: BatchRunner output is bit-identical
// for every thread count and equal to a sequential KernelRunner replay, over
// random DAGs with fixed seeds — the guarantee DESIGN.md §5c states.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/lane_staging.h"
#include "core/simulator.h"
#include "core/thread_pool.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "ir/verify.h"
#include "lcc/lcc.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "resilience/fault_injection.h"

namespace udsim {
namespace {

std::vector<unsigned> thread_counts() {
  return {1u, 2u, 5u, ThreadPool::hardware_threads()};
}

Netlist test_dag(std::uint64_t seed, int max_delay = 1) {
  RandomDagParams p;
  p.name = "batch" + std::to_string(seed);
  p.inputs = 8;
  p.outputs = 6;
  p.gates = 150;
  p.depth = 10;
  p.seed = seed;
  p.reach = 1.6;
  p.max_delay = max_delay;
  return random_dag(p);
}

/// Row-major input matrix: one 0/1 Bit per PI per vector.
std::vector<Bit> random_inputs(std::size_t pis, std::size_t count,
                               std::uint64_t seed) {
  RandomVectorSource src(pis, seed);
  std::vector<Bit> row(pis);
  std::vector<Bit> in(pis * count);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(row);
    for (std::size_t i = 0; i < pis; ++i) in[v * pis + i] = row[i];
  }
  return in;
}

template <class Word>
std::vector<Bit> sequential_replay(const Program& p,
                                   const std::vector<ArenaProbe>& probes,
                                   const std::vector<Bit>& in,
                                   std::size_t count) {
  KernelRunner<Word> runner(p);
  std::vector<Word> row(p.input_words);
  std::vector<Bit> out;
  out.reserve(count * probes.size());
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t i = 0; i < p.input_words; ++i) {
      row[i] = static_cast<Word>(std::uint64_t{in[v * p.input_words + i]});
    }
    runner.run(row);
    for (const ArenaProbe& pr : probes) out.push_back(runner.bit(pr.word, pr.bit));
  }
  return out;
}

template <class Word>
void expect_batch_matches_sequential(const Program& program,
                                     const std::vector<ArenaProbe>& probes,
                                     const Netlist& nl, std::size_t count,
                                     std::uint64_t vec_seed,
                                     const char* what) {
  const auto in = random_inputs(nl.primary_inputs().size(), count, vec_seed);
  const auto expect = sequential_replay<Word>(program, probes, in, count);
  for (unsigned nt : thread_counts()) {
    BatchRunner batch(program, probes, BatchOptions{.num_threads = nt});
    const auto got = batch.run(in, count);
    ASSERT_EQ(expect, got) << what << " differs from sequential replay at "
                           << nt << " threads (" << nl.name() << ")";
  }
}

std::vector<ArenaProbe> parallel_probes(const ParallelCompiled& c,
                                        const Netlist& nl) {
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) {
    const auto pr = c.final_probe(po);
    probes.push_back({pr.word, pr.bit});
  }
  return probes;
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must still be usable after a failed batch.
  std::atomic<int> sum{0};
  pool.parallel_for(8, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 8);
}

/// The five parallel-technique variants behind the Parallel* engine kinds.
const ParallelOptions kParallelVariants[] = {
    {},
    {.trimming = true},
    {.shift_elim = ShiftElim::PathTracing},
    {.shift_elim = ShiftElim::CycleBreaking},
    {.trimming = true, .shift_elim = ShiftElim::PathTracing},
};

std::vector<ArenaProbe> lcc_probes(const LccCompiled& c, const Netlist& nl) {
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) probes.push_back({c.net_var[po.value], 0});
  return probes;
}

TEST(BatchRunner, ParallelVariantsBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Netlist nl = test_dag(seed);
    for (const ParallelOptions& opt : kParallelVariants) {
      const ParallelCompiled c = compile_parallel(nl, opt);
      expect_batch_matches_sequential<std::uint32_t>(
          c.program, parallel_probes(c, nl), nl, 257, seed * 977,
          "parallel program");
    }
  }
}

TEST(BatchRunner, PCSetProgramBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    const Netlist nl = test_dag(seed);
    const PCSetCompiled c = compile_pcset(nl);
    std::vector<ArenaProbe> probes;
    for (NetId po : nl.primary_outputs()) probes.push_back({c.final_var(po), 0});
    expect_batch_matches_sequential<std::uint32_t>(c.program, probes, nl, 201,
                                                   seed * 977, "PC-set program");
  }
}

TEST(BatchRunner, LccProgramBitIdenticalAcrossThreadCounts) {
  const Netlist nl = test_dag(31);
  const LccCompiled c = compile_lcc(nl);
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) probes.push_back({c.net_var[po.value], 0});
  expect_batch_matches_sequential<std::uint32_t>(c.program, probes, nl, 130,
                                                 7777, "LCC program");
}

TEST(BatchRunner, PackedLccProgramBitIdenticalAcrossThreadCounts) {
  // Lanes as shards: the packed program's batch run (one vector per lane)
  // equals its own one-vector-per-pass replay.
  const Netlist nl = test_dag(32);
  const LccCompiled c32 = compile_lcc(nl, /*packed=*/true, 32);
  expect_batch_matches_sequential<std::uint32_t>(
      c32.program, lcc_probes(c32, nl), nl, 130, 7778, "packed LCC program");
  const LccCompiled c64 = compile_lcc(nl, /*packed=*/true, 64);
  expect_batch_matches_sequential<std::uint64_t>(
      c64.program, lcc_probes(c64, nl), nl, 130, 7779, "packed 64-bit LCC");
}

TEST(BatchRunner, MultiDelayProgramBitIdenticalAcrossThreadCounts) {
  const Netlist nl = test_dag(41, /*max_delay=*/3);
  const ParallelCompiled c = compile_parallel(nl, {.trimming = true});
  expect_batch_matches_sequential<std::uint32_t>(
      c.program, parallel_probes(c, nl), nl, 160, 4141, "multi-delay program");
}

TEST(BatchRunner, SixtyFourBitWordProgram) {
  const Netlist nl = test_dag(51);
  const ParallelCompiled c = compile_parallel(nl, {.word_bits = 64});
  ASSERT_EQ(c.program.word_bits, 64);
  expect_batch_matches_sequential<std::uint64_t>(
      c.program, parallel_probes(c, nl), nl, 97, 5151, "64-bit program");
}

TEST(BatchRunner, EdgeCaseVectorCounts) {
  const Netlist nl = test_dag(61);
  const ParallelCompiled c = compile_parallel(nl, {});
  const auto probes = parallel_probes(c, nl);
  BatchRunner batch(c.program, probes, BatchOptions{.num_threads = 5});
  // Zero vectors: empty result, no shards.
  EXPECT_TRUE(batch.run({}, 0).empty());
  EXPECT_EQ(batch.shard_count(0), 0u);
  // Fewer vectors than threads, including exactly one.
  for (std::size_t count : {std::size_t{1}, std::size_t{3}}) {
    const auto in = random_inputs(nl.primary_inputs().size(), count, 616);
    EXPECT_EQ(batch.run(in, count),
              (sequential_replay<std::uint32_t>(c.program, probes, in, count)));
  }
  // min_chunk keeps shards from shrinking below a replay-worthy size.
  BatchRunner coarse(c.program, probes,
                     BatchOptions{.num_threads = 8, .min_chunk = 100});
  EXPECT_EQ(coarse.shard_count(150), 2u);
  EXPECT_EQ(coarse.shard_count(99), 1u);
  EXPECT_LE(batch.shard_count(1000), 5u);
}

TEST(BatchRunner, RejectsMalformedRequests) {
  const Netlist nl = test_dag(71);
  const ParallelCompiled c = compile_parallel(nl, {});
  EXPECT_THROW(BatchRunner(c.program, {{c.program.arena_words, 0}}),
               std::invalid_argument);
  EXPECT_THROW(BatchRunner(c.program, {{0, 32}}), std::invalid_argument);
  BatchRunner batch(c.program, parallel_probes(c, nl));
  const auto in = random_inputs(nl.primary_inputs().size(), 2, 1);
  EXPECT_THROW((void)batch.run(in, 3), std::invalid_argument);
}

TEST(BatchRunner, LaneIndependenceIsAProgramProperty) {
  const Netlist nl = test_dag(101);
  // Packed LCC loads whole input words and keeps no state: one vector per
  // lane. Scalar LCC's single-bit loads mask the other lanes away.
  const LccCompiled packed = compile_lcc(nl, /*packed=*/true);
  EXPECT_TRUE(lanes_independent(packed.program));
  EXPECT_EQ(BatchRunner(packed.program, lcc_probes(packed, nl)).lanes(), 32u);
  const LccCompiled scalar = compile_lcc(nl);
  EXPECT_FALSE(lanes_independent(scalar.program));
  EXPECT_EQ(BatchRunner(scalar.program, lcc_probes(scalar, nl)).lanes(), 1u);
  EXPECT_EQ(lane_class(packed.program), LaneClass::Independent);
  EXPECT_EQ(lane_class(scalar.program), LaneClass::Scalar);
  // PC-set retains state across vectors; the parallel technique keeps time
  // in the bits.
  EXPECT_FALSE(lanes_independent(compile_pcset(nl).program));
  for (const ParallelOptions& opt : kParallelVariants) {
    EXPECT_FALSE(lanes_independent(compile_parallel(nl, opt).program));
    EXPECT_EQ(lane_class(compile_parallel(nl, opt).program), LaneClass::Scalar);
  }
  // With whole-word loads PC-set's retained state is lane-wise: stateful
  // lanes, one contiguous chunk of the stream per lane. Single-bit loads
  // keep it scalar.
  const PCSetCompiled pc_packed = compile_pcset(nl, {}, /*packed=*/true);
  const PCSetCompiled pc_scalar = compile_pcset(nl);
  EXPECT_FALSE(lanes_independent(pc_packed.program));
  EXPECT_EQ(lane_class(pc_packed.program), LaneClass::Stateful);
  EXPECT_EQ(lane_class(pc_scalar.program), LaneClass::Scalar);
  std::vector<ArenaProbe> pc_probes;
  for (NetId po : nl.primary_outputs()) pc_probes.push_back({pc_packed.final_var(po), 0});
  const BatchRunner stateful(pc_packed.program, pc_probes);
  EXPECT_EQ(stateful.layout(), LaneClass::Stateful);
  EXPECT_EQ(stateful.lanes(), 32u);
  // The facade classifies once, when the engine is built.
  EXPECT_EQ(make_simulator(nl, EngineKind::PCSet)->lane_class(), LaneClass::Stateful);
  EXPECT_EQ(make_simulator(nl, EngineKind::ZeroDelayLcc)->lane_class(),
            LaneClass::Independent);
  EXPECT_EQ(make_simulator(nl, EngineKind::ParallelCombined)->lane_class(),
            LaneClass::Scalar);
  EXPECT_EQ(make_simulator(nl, EngineKind::Event2)->lane_class(), LaneClass::Scalar);

  // Hand-built: an accumulate into a word this pass has not written reads
  // the previous pass's value.
  Program p;
  p.word_bits = 32;
  p.arena_words = 3;
  p.input_words = 1;
  p.ops = {{OpCode::LoadWord, 0, 0, 0, 0}, {OpCode::AccOr, 0, 1, 0, 0}};
  EXPECT_FALSE(lanes_independent(p));
  EXPECT_EQ(lane_class(p), LaneClass::Stateful);
  // Writing the word first makes the same accumulate lane-local.
  p.ops.insert(p.ops.begin() + 1, Op{OpCode::Copy, 0, 1, 0, 0});
  EXPECT_TRUE(lanes_independent(p));
  // A never-written constant word is fine when uniform across lanes...
  p.ops.push_back({OpCode::And, 0, 1, 1, 2});
  p.arena_init = {{2, ~std::uint64_t{0}}};
  EXPECT_TRUE(lanes_independent(p));
  // ...but a mask-like constant differs per lane.
  p.arena_init = {{2, 0x5555u}};
  EXPECT_FALSE(lanes_independent(p));
  EXPECT_EQ(lane_class(p), LaneClass::Scalar);
}

TEST(BatchRunner, PackedPathRetriesInjectedFaultsBitIdentically) {
  const Netlist nl = test_dag(111);
  const LccCompiled c = compile_lcc(nl, /*packed=*/true);
  const auto probes = lcc_probes(c, nl);
  constexpr std::size_t kCount = 3 * 32 + 5;  // four passes, the last partial
  const auto in = random_inputs(nl.primary_inputs().size(), kCount, 1111);
  const auto expect =
      sequential_replay<std::uint32_t>(c.program, probes, in, kCount);
  for (FaultSite site : {FaultSite::WorkerThrow, FaultSite::ArenaCorrupt}) {
    for (unsigned nt : {1u, 2u, 5u}) {
      const BatchOptions base{.num_threads = nt};
      const std::size_t shards = BatchRunner(c.program, probes, base).shard_count(kCount);
      // Inside the first pass of shard 0 and inside the last pass, which
      // the last shard owns; neither vector starts a pass.
      FaultInjector inject(3);
      inject.add_site({site, 0, 7, 0});
      inject.add_site({site, shards - 1, 100, 0});
      BatchOptions opts = base;
      opts.inject = &inject;
      BatchRunner batch(c.program, probes, opts);
      ASSERT_EQ(batch.lanes(), 32u);
      const ResilientBatch r = batch.run_resilient(in, kCount);
      ASSERT_EQ(r.status, RunStatus::Complete);
      EXPECT_EQ(r.values, expect)
          << fault_site_name(site) << " at " << nt << " threads";
      const std::uint64_t fired = shards == 1 ? 1 : 2;  // one shard: retry is attempt 1
      EXPECT_EQ(inject.fired(site), fired) << nt << " threads";
      EXPECT_EQ(r.retries, fired);
      EXPECT_EQ(r.quarantined, 0u);
    }
  }
}

TEST(BatchRunner, StagingAgreesWithTheNaiveTranspose) {
  // Block-transpose staging must equal a bit-by-bit transpose, including
  // partial column chunks, partial lane blocks, zero-filled unused lanes
  // and strided rows (every gap-th row of a stream, read and written in
  // place).
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::pair<std::size_t, std::size_t> shapes[] = {  // (stride, lanes)
      {1, 1}, {1, 31}, {1, 32}, {1, 64}, {2, 100}, {4, 256}, {4, 200}, {4, 0}};
  for (std::size_t cols : {1u, 7u, 8u, 9u, 36u, 64u, 65u, 130u}) {
    for (const auto& [stride, lanes] : shapes) {
      for (std::size_t gap : {1u, 3u}) {
        // Stream bytes carry junk above bit 0, which staging must ignore.
        const std::size_t row_stride = gap * cols;
        std::vector<Bit> rows(lanes * row_stride);
        for (Bit& b : rows) b = static_cast<Bit>(next());
        std::vector<std::uint64_t> naive(cols * stride, 0);
        for (std::size_t k = 0; k < lanes; ++k) {
          for (std::size_t c = 0; c < cols; ++c) {
            naive[c * stride + k / 64] |=
                std::uint64_t{rows[k * row_stride + c] & 1u} << (k % 64);
          }
        }
        const std::string what = "cols=" + std::to_string(cols) +
                                 " lanes=" + std::to_string(lanes) +
                                 " gap=" + std::to_string(gap);
        std::vector<std::uint64_t> words(cols * stride, ~std::uint64_t{0});
        pack_lanes(rows.data(), row_stride, cols, lanes, words.data(), stride);
        EXPECT_EQ(words, naive) << what;
        // Bytes between strided rows and one spare row past `lanes` must
        // stay untouched.
        std::vector<Bit> out((lanes + 1) * row_stride, 0xAA);
        unpack_lanes(naive.data(), stride, cols, lanes, out.data(), row_stride);
        for (std::size_t i = 0; i < out.size(); ++i) {
          const bool staged = i / row_stride < lanes && i % row_stride < cols;
          const Bit want = staged ? static_cast<Bit>(rows[i] & 1u) : 0xAA;
          ASSERT_EQ(out[i], want) << what << " byte " << i;
        }
      }
    }
  }
}

TEST(SimulatorFacade, RunBatchMatchesStepReplayForEveryEngine) {
  constexpr EngineKind kAll[] = {
      EngineKind::Event2,        EngineKind::Event3,
      EngineKind::PCSet,         EngineKind::Parallel,
      EngineKind::ParallelTrimmed, EngineKind::ParallelPathTracing,
      EngineKind::ParallelCycleBreaking, EngineKind::ParallelCombined,
      EngineKind::ZeroDelayLcc,
  };
  const Netlist nl = test_dag(81);
  const std::size_t pis = nl.primary_inputs().size();
  const std::size_t count = 40;
  RandomVectorSource src(pis, 818);
  std::vector<Bit> flat(pis * count);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  for (EngineKind kind : kAll) {
    const auto sim = make_simulator(nl, kind);
    const BatchResult r = sim->run_batch(flat, 3);
    ASSERT_EQ(r.vectors, count);
    ASSERT_EQ(r.outputs, nl.primary_outputs());
    ASSERT_EQ(&sim->netlist(), &nl);
    const auto replay = make_simulator(nl, kind);
    for (std::size_t v = 0; v < count; ++v) {
      replay->step(std::span<const Bit>(flat.data() + v * pis, pis));
      for (std::size_t o = 0; o < r.outputs.size(); ++o) {
        ASSERT_EQ(r.value(v, o), replay->final_value(r.outputs[o]))
            << engine_name(kind) << " vector " << v << " output " << o;
      }
    }
    // run_batch starts from the reset state and must ignore (and preserve)
    // the instance's incremental step() state.
    sim->step(std::span<const Bit>(flat.data(), pis));
    const BatchResult again = sim->run_batch(flat, 2);
    EXPECT_EQ(r.values, again.values) << engine_name(kind);
  }
}

// Batches borrow the one process-wide pool instead of spawning threads per
// call: a second two-shard batch runs on threads the first one used, and a
// one-shard batch runs inline on the caller.
TEST(SimulatorFacade, RunBatchReusesPoolThreadsAndRunsOneShardInline) {
  const Netlist nl = test_dag(97);
  const auto sim = make_simulator(nl, EngineKind::ParallelCombined);
  MetricsRegistry reg;
  sim->set_metrics(&reg);
  const auto in = random_inputs(nl.primary_inputs().size(), 64, 970);
  const auto shard_tids = [&] {
    std::set<std::uint32_t> tids;
    for (const TraceEvent& e : reg.trace_events()) {
      if (e.name == "batch.shard") tids.insert(e.tid);
    }
    reg.clear_trace();
    return tids;
  };
  (void)sim->run_batch(in, 2);
  const std::set<std::uint32_t> first = shard_tids();
  (void)sim->run_batch(in, 2);
  const std::set<std::uint32_t> second = shard_tids();
  ASSERT_FALSE(second.empty());
  for (std::uint32_t tid : second) {
    EXPECT_EQ(first.count(tid), 1u) << "shard ran on new thread " << tid;
  }
  (void)sim->run_batch(in, 1);
  EXPECT_EQ(shard_tids(), std::set<std::uint32_t>{trace_thread_id()});
}

TEST(SimulatorFacade, RunBatchRejectsRaggedStream) {
  const Netlist nl = test_dag(91);
  const auto sim = make_simulator(nl, EngineKind::Parallel);
  const std::vector<Bit> ragged(nl.primary_inputs().size() + 1, 0);
  EXPECT_THROW((void)sim->run_batch(ragged, 1), std::invalid_argument);
}

}  // namespace
}  // namespace udsim
