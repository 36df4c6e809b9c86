// Checkpoint/resume correctness and durability (DESIGN.md §5f).
//
// The load-bearing property: a run interrupted at any point and resumed from
// its snapshot is bit-identical to the uninterrupted run — verified here for
// every ISCAS-85 profile × {zero-delay LCC, PC-set, parallel-combined} ×
// thread counts {1, 2, 5}, at both word sizes. The durability half
// fuzz-checks the wire format: truncations at every prefix, single-byte
// flips at every offset, version skew and geometry mismatches must all load
// as structured CheckpointError, never as a crash or a partial object.
#include "resilience/checkpoint.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "lcc/lcc.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "resilience/fault_injection.h"

namespace udsim {
namespace {

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

struct CompiledCase {
  const char* engine;
  Program program;
  std::vector<ArenaProbe> probes;
};

std::vector<CompiledCase> compile_all(const Netlist& nl) {
  std::vector<CompiledCase> cases;
  {
    CompiledCase c{.engine = "lcc"};
    LccCompiled lcc = compile_lcc(nl);
    for (NetId po : nl.primary_outputs()) c.probes.push_back({lcc.net_var[po.value], 0});
    c.program = std::move(lcc.program);
    cases.push_back(std::move(c));
  }
  {
    CompiledCase c{.engine = "pcset"};
    PCSetCompiled pc = compile_pcset(nl);
    for (NetId po : nl.primary_outputs()) c.probes.push_back({pc.final_var(po), 0});
    c.program = std::move(pc.program);
    cases.push_back(std::move(c));
  }
  {
    CompiledCase c{.engine = "parallel-combined"};
    ParallelCompiled par = compile_parallel(
        nl, {.trimming = true, .shift_elim = ShiftElim::PathTracing});
    for (NetId po : nl.primary_outputs()) {
      const auto pr = par.final_probe(po);
      c.probes.push_back({pr.word, pr.bit});
    }
    c.program = std::move(par.program);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Interrupt a run mid-shard via an injected deadline overrun, round-trip
/// the checkpoint through the wire format, resume on a fresh runner, and
/// demand the combined output equal the uninterrupted sequential replay.
template <class Word>
void expect_resume_bit_identical(const CompiledCase& c,
                                 const std::vector<Bit>& in,
                                 std::size_t count,
                                 const std::vector<Bit>& expect, unsigned nt,
                                 const char* circuit) {
  const BatchOptions base{.num_threads = nt, .min_chunk = 8};
  std::size_t shards = 0;
  {
    BatchRunner probe_runner(c.program, c.probes, base);
    shards = probe_runner.shard_count(count);
  }
  // Stop the last shard a vector after its seam: exercises the mid-stream
  // arena capture, and with nt > 1 leaves earlier shards complete.
  const std::size_t quot = count / shards;
  const std::size_t rem = count % shards;
  const std::size_t s = shards - 1;
  const std::size_t begin = s * quot + std::min(s, rem);
  FaultInjector inject(7);
  inject.add_site({FaultSite::DeadlineOverrun, s, begin + 1, 0});

  BatchOptions interrupted = base;
  interrupted.inject = &inject;
  BatchRunner first(c.program, c.probes, interrupted);
  ResilientBatch stopped = first.run_resilient(in, count);
  ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired)
      << circuit << "/" << c.engine << " nt=" << nt;
  ASSERT_LT(stopped.vectors_done, count);
  ASSERT_GT(stopped.vectors_done, 0u);

  // Wire round-trip: what resumes is what a process restart would see.
  const std::string bytes = checkpoint_to_bytes(stopped.checkpoint);
  const BatchCheckpoint reloaded = checkpoint_from_bytes(bytes);
  ASSERT_EQ(reloaded.vectors_done(), stopped.checkpoint.vectors_done());

  BatchRunner second(c.program, c.probes, base);
  ResilientBatch resumed = second.run_resilient(in, count, &reloaded);
  ASSERT_EQ(resumed.status, RunStatus::Complete);
  EXPECT_EQ(resumed.vectors_done, count);
  ASSERT_EQ(resumed.values, expect)
      << circuit << "/" << c.engine << " resumed run differs at nt=" << nt;

  // The wire format lets a mid-stream shard omit its arena (lane-packed
  // runs retain none); resuming a one-vector-per-pass run from one is
  // refused.
  BatchCheckpoint stripped = stopped.checkpoint;
  ASSERT_FALSE(stripped.shards[s].arena.empty());
  stripped.shards[s].arena.clear();
  const BatchCheckpoint stripped_reloaded =
      checkpoint_from_bytes(checkpoint_to_bytes(stripped));
  try {
    (void)second.run_resilient(in, count, &stripped_reloaded);
    ADD_FAILURE() << circuit << "/" << c.engine << ": expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::Corrupt) << e.what();
  }
}

TEST(CheckpointResume, BitIdenticalForEveryProfileEngineAndThreadCount) {
  for (const IscasProfile& profile : iscas85_profiles()) {
    const Netlist nl = make_iscas85_like(profile.name, 3);
    const std::size_t pis = nl.primary_inputs().size();
    const std::size_t count = 60;
    const auto in = random_inputs(pis, count, 0xC0FFEE ^ profile.gates);
    for (const CompiledCase& c : compile_all(nl)) {
      const auto expect =
          sequential_replay<std::uint32_t>(c.program, c.probes, in, count);
      for (unsigned nt : {1u, 2u, 5u}) {
        expect_resume_bit_identical<std::uint32_t>(c, in, count, expect, nt,
                                                   profile.name.c_str());
      }
    }
  }
}

TEST(CheckpointResume, SixtyFourBitWordPrograms) {
  const Netlist nl = make_iscas85_like("c432", 5);
  const std::size_t count = 60;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 99);
  ParallelCompiled par = compile_parallel(nl, {.word_bits = 64});
  CompiledCase c{.engine = "parallel64"};
  for (NetId po : nl.primary_outputs()) {
    const auto pr = par.final_probe(po);
    c.probes.push_back({pr.word, pr.bit});
  }
  c.program = std::move(par.program);
  const auto expect =
      sequential_replay<std::uint64_t>(c.program, c.probes, in, count);
  for (unsigned nt : {1u, 2u, 5u}) {
    expect_resume_bit_identical<std::uint64_t>(c, in, count, expect, nt, "c432");
  }
}

TEST(CheckpointResume, PackedLccStopsAndResumesOnPassBoundaries) {
  // Lanes as shards: a packed LCC run stops between passes and resumes
  // bit-identically at every lane width and thread count.
  const Netlist nl = make_iscas85_like("c880", 3);
  const LccCompiled scalar = compile_lcc(nl);
  std::vector<ArenaProbe> scalar_probes;
  for (NetId po : nl.primary_outputs()) {
    scalar_probes.push_back({scalar.net_var[po.value], 0});
  }
  for (int w : supported_widths()) {
    const LccCompiled lcc = compile_lcc(nl, /*packed=*/true, w);
    std::vector<ArenaProbe> probes;
    for (NetId po : nl.primary_outputs()) probes.push_back({lcc.net_var[po.value], 0});
    const std::size_t lanes = static_cast<std::size_t>(w);
    const std::size_t count = 3 * lanes + 5;  // four passes, the last partial
    const std::size_t passes = 4;
    const auto in = random_inputs(nl.primary_inputs().size(), count, 0xBEEF + lanes);
    const auto expect = sequential_replay<std::uint32_t>(scalar.program,
                                                         scalar_probes, in, count);
    for (unsigned nt : {1u, 2u, 5u}) {
      const BatchOptions base{.num_threads = nt, .min_chunk = 8};
      BatchRunner probe_runner(lcc.program, probes, base);
      ASSERT_EQ(probe_runner.lanes(), lanes);
      const std::size_t shards = probe_runner.shard_count(count);
      // Stop the last shard after its first pass when it has two or more,
      // else before its only pass (earlier shards then hold the progress).
      const std::size_t s = shards - 1;
      const std::size_t quot = passes / shards;
      const std::size_t rem = passes % shards;
      const std::size_t first = s * quot + std::min(s, rem);
      const std::size_t own = quot + (s < rem ? 1 : 0);
      const std::size_t stop_at = (first + (own >= 2 ? 1 : 0)) * lanes;
      // Planted inside the pass that starts at stop_at: it fires on that
      // pass, before it runs.
      FaultInjector inject(11);
      inject.add_site({FaultSite::DeadlineOverrun, s, stop_at + 3, 0});
      BatchOptions interrupted = base;
      interrupted.inject = &inject;
      BatchRunner first_run(lcc.program, probes, interrupted);
      const ResilientBatch stopped = first_run.run_resilient(in, count);
      ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired) << w << "/" << nt;
      ASSERT_EQ(stopped.vectors_done, stop_at) << w << "/" << nt;
      for (const ShardCheckpoint& sc : stopped.checkpoint.shards) {
        EXPECT_TRUE(sc.next == sc.end || (sc.next - sc.begin) % lanes == 0);
        EXPECT_TRUE(sc.arena.empty());  // packed passes retain no state
      }

      const BatchCheckpoint reloaded =
          checkpoint_from_bytes(checkpoint_to_bytes(stopped.checkpoint));
      BatchRunner second(lcc.program, probes, base);
      const ResilientBatch resumed = second.run_resilient(in, count, &reloaded);
      ASSERT_EQ(resumed.status, RunStatus::Complete);
      ASSERT_EQ(resumed.values, expect) << w << "-bit lanes, " << nt << " threads";

      // A resume point inside a pass cannot come from this geometry.
      BatchCheckpoint torn = reloaded;
      torn.shards[s].next += 1;
      torn.shards[s].rows.resize(torn.shards[s].rows.size() + probes.size());
      try {
        (void)second.run_resilient(in, count, &torn);
        FAIL() << "expected CheckpointError";
      } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Corrupt) << e.what();
      }
    }
  }
}

// ---- durability ------------------------------------------------------------

/// A small real checkpoint (mid-stream arena, completed rows, several
/// shards) to fuzz the wire format with.
BatchCheckpoint sample_checkpoint() {
  RandomDagParams p;
  p.name = "ck";
  p.inputs = 6;
  p.outputs = 4;
  p.gates = 60;
  p.depth = 6;
  p.seed = 17;
  const Netlist nl = random_dag(p);
  LccCompiled lcc = compile_lcc(nl);
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) probes.push_back({lcc.net_var[po.value], 0});
  const std::size_t count = 40;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 4);
  FaultInjector inject(1);
  inject.add_site({FaultSite::DeadlineOverrun, 2, 25, 0});
  BatchRunner runner(lcc.program, probes,
                     BatchOptions{.num_threads = 4, .min_chunk = 4,
                                  .inject = &inject});
  ResilientBatch stopped = runner.run_resilient(in, count);
  EXPECT_EQ(stopped.status, RunStatus::DeadlineExpired);
  return stopped.checkpoint;
}

TEST(CheckpointWire, RoundTripPreservesEveryField) {
  const BatchCheckpoint ck = sample_checkpoint();
  const BatchCheckpoint re = checkpoint_from_bytes(checkpoint_to_bytes(ck));
  EXPECT_EQ(re.word_bits, ck.word_bits);
  EXPECT_EQ(re.arena_words, ck.arena_words);
  EXPECT_EQ(re.input_words, ck.input_words);
  EXPECT_EQ(re.probe_count, ck.probe_count);
  EXPECT_EQ(re.num_vectors, ck.num_vectors);
  ASSERT_EQ(re.shards.size(), ck.shards.size());
  for (std::size_t i = 0; i < ck.shards.size(); ++i) {
    EXPECT_EQ(re.shards[i].begin, ck.shards[i].begin);
    EXPECT_EQ(re.shards[i].end, ck.shards[i].end);
    EXPECT_EQ(re.shards[i].next, ck.shards[i].next);
    EXPECT_EQ(re.shards[i].arena, ck.shards[i].arena);
    EXPECT_EQ(re.shards[i].rows, ck.shards[i].rows);
  }
  EXPECT_EQ(re.vectors_done(), ck.vectors_done());
  EXPECT_FALSE(re.complete());
}

TEST(CheckpointWire, StreamVariantsMatchByteVariants) {
  const BatchCheckpoint ck = sample_checkpoint();
  std::ostringstream out;
  save_checkpoint(out, ck);
  EXPECT_EQ(out.str(), checkpoint_to_bytes(ck));
  std::istringstream in(out.str());
  const BatchCheckpoint re = load_checkpoint(in);
  EXPECT_EQ(re.num_vectors, ck.num_vectors);
  EXPECT_EQ(re.vectors_done(), ck.vectors_done());
}

TEST(CheckpointWire, EveryTruncationIsAStructuredError) {
  const std::string bytes = checkpoint_to_bytes(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)checkpoint_from_bytes(bytes.substr(0, len)),
                 CheckpointError)
        << "prefix length " << len << " of " << bytes.size();
  }
}

TEST(CheckpointWire, EverySingleByteFlipIsAStructuredError) {
  const std::string bytes = checkpoint_to_bytes(sample_checkpoint());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    EXPECT_THROW((void)checkpoint_from_bytes(mutated), CheckpointError)
        << "flip at offset " << i;
  }
}

TEST(CheckpointWire, TrailingGarbageIsRejected) {
  const std::string bytes = checkpoint_to_bytes(sample_checkpoint());
  EXPECT_THROW((void)checkpoint_from_bytes(bytes + '\0'), CheckpointError);
}

TEST(CheckpointWire, VersionSkewIsUnsupportedVersion) {
  std::string bytes = checkpoint_to_bytes(sample_checkpoint());
  // Offset 4: the version u32 follows the magic.
  bytes[4] = static_cast<char>(BatchCheckpoint::kVersion + 1);
  try {
    (void)checkpoint_from_bytes(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::UnsupportedVersion);
    EXPECT_EQ(checkpoint_error_name(e.kind()), "unsupported-version");
  }
}

TEST(CheckpointWire, NotACheckpointIsBadMagic) {
  try {
    (void)checkpoint_from_bytes("this is not a checkpoint, sorry");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::BadMagic);
  }
}

TEST(CheckpointResume, GeometryMismatchIsStructuredNotWrong) {
  RandomDagParams p;
  p.name = "geo";
  p.inputs = 5;
  p.outputs = 3;
  p.gates = 40;
  p.depth = 5;
  p.seed = 23;
  const Netlist nl = random_dag(p);
  LccCompiled lcc = compile_lcc(nl);
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) probes.push_back({lcc.net_var[po.value], 0});
  const std::size_t count = 32;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 6);
  FaultInjector inject(2);
  inject.add_site({FaultSite::DeadlineOverrun, 0, 10, 0});
  BatchRunner runner(lcc.program, probes,
                     BatchOptions{.num_threads = 2, .min_chunk = 4,
                                  .inject = &inject});
  const ResilientBatch stopped = runner.run_resilient(in, count);
  ASSERT_NE(stopped.status, RunStatus::Complete);

  const auto expect_geometry = [&](BatchRunner& r, std::size_t n) {
    try {
      (void)r.run_resilient(in, n, &stopped.checkpoint);
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::Geometry) << e.what();
    }
  };
  // Different vector count.
  BatchRunner same(lcc.program, probes,
                   BatchOptions{.num_threads = 2, .min_chunk = 4});
  expect_geometry(same, count - 8);
  // Different shard boundaries (thread count changed).
  BatchRunner other(lcc.program, probes,
                    BatchOptions{.num_threads = 4, .min_chunk = 4});
  expect_geometry(other, count);
}

}  // namespace
}  // namespace udsim
