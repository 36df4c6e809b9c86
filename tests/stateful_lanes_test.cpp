// Stateful lanes (DESIGN.md §5c) at 32-bit words: PC-set programs retain
// state across vectors but compute every lane on its own, so a batch runs
// lane k of each pass over contiguous chunk k of a shard, after one seam
// pass that loads each lane's predecessor vector (and resets lane 0 of the
// first shard to the initial arena). Every layout below must reproduce
// OracleSim and a one-vector-per-pass KernelRunner replay bit for bit, at
// every thread count, vector count, retry and resume. The wider words run
// the same matrix in width_matrix_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "core/simulator.h"
#include "gen/iscas_profiles.h"
#include "gen/random_dag.h"
#include "lane_matrix.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"
#include "resilience/resilient_run.h"

namespace udsim {
namespace {

constexpr unsigned kThreads[] = {1u, 2u, 5u};
constexpr std::size_t kLanes = 32;
constexpr std::size_t kStream = 200;  // the longest count of the matrix

/// [begin, end) of shard `s` of a run of `count` vectors at `lanes`
/// vectors per pass — BatchRunner's plan: whole passes, spread evenly.
std::pair<std::size_t, std::size_t> shard_bounds(std::size_t count,
                                                 std::size_t lanes,
                                                 std::size_t shards,
                                                 std::size_t s) {
  const std::size_t passes = (count + lanes - 1) / lanes;
  const std::size_t quot = passes / shards;
  const std::size_t rem = passes % shards;
  const std::size_t first = s * quot + std::min(s, rem);
  const std::size_t last = first + quot + (s < rem ? 1 : 0);
  return {first * lanes, std::min(count, last * lanes)};
}

void expect_wave_matrix(const Netlist& nl, std::uint64_t seed) {
  const test::WaveCase c = test::make_wave_case(nl, 32);
  const std::vector<Bit> flat = test::lane_stream(nl, kStream, seed);
  const std::vector<Bit> expect = test::wave_expect(nl, c, flat, kStream);
  for (std::size_t count : test::lane_matrix_counts(kLanes)) {
    for (unsigned nt : kThreads) {
      test::expect_wave_batch(c, flat, count, expect, nt,
                              nl.name() + " n=" + std::to_string(count) +
                                  " threads=" + std::to_string(nt));
    }
  }
}

TEST(StatefulLanes, PrintGridMatchesOracleOnIscasProfiles) {
  for (const IscasProfile& profile : iscas85_profiles()) {
    expect_wave_matrix(make_iscas85_like(profile.name, 3), 0x5eed ^ profile.gates);
  }
}

TEST(StatefulLanes, PrintGridMatchesOracleOnRandomDags) {
  for (std::uint64_t seed : {3ull, 19ull, 77ull}) {
    for (int max_delay : {1, 3}) {
      RandomDagParams p;
      p.name = "lanes" + std::to_string(seed) + "d" + std::to_string(max_delay);
      p.inputs = 9;
      p.outputs = 5;
      p.gates = 140;
      p.depth = 9;
      p.seed = seed;
      p.max_delay = max_delay;
      expect_wave_matrix(random_dag(p), seed * 7);
    }
  }
}

TEST(StatefulLanes, RunBatchMatchesOracleOnIscasProfiles) {
  for (const IscasProfile& profile : iscas85_profiles()) {
    const Netlist nl = make_iscas85_like(profile.name, 3);
    const auto sim = make_simulator(nl, EngineKind::PCSet);
    ASSERT_EQ(sim->lane_class(), LaneClass::Stateful) << profile.name;
    const std::vector<Bit> flat = test::lane_stream(nl, kStream, profile.gates);
    const std::vector<Bit> expect = test::oracle_final_rows(nl, flat, kStream);
    for (std::size_t count : test::lane_matrix_counts(kLanes)) {
      for (unsigned nt : kThreads) {
        test::expect_facade_batch(*sim, flat, count, expect, nt,
                                  profile.name + " n=" + std::to_string(count) +
                                      " threads=" + std::to_string(nt));
      }
    }
  }
}

TEST(StatefulLanes, InjectedFaultsRetryBitIdentically) {
  // A thrown or arena-corrupting pass in the middle of a chunk restarts
  // the shard from a fresh arena and a fresh seam pass; three failures of
  // one shard degrade it to a sequential replay on the caller.
  const Netlist nl = make_iscas85_like("c880", 5);
  const test::WaveCase c = test::make_wave_case(nl, 32);
  const std::vector<Bit> flat = test::lane_stream(nl, kStream, 41);
  const std::vector<Bit> expect = test::wave_expect(nl, c, flat, kStream);
  for (unsigned nt : kThreads) {
    const std::size_t shards =
        BatchRunner(c.pc.program, c.probes, BatchOptions{.num_threads = nt})
            .shard_count(kStream);
    const auto [b0, e0] = shard_bounds(kStream, kLanes, shards, 0);
    const auto [bl, el] = shard_bounds(kStream, kLanes, shards, shards - 1);
    const std::size_t chunk0 = (e0 - b0 + kLanes - 1) / kLanes;
    const std::size_t chunkl = (el - bl + kLanes - 1) / kLanes;
    // Lane 1, pass 1 of shard 0 and lane 2, pass 1 of the last shard (when
    // its chunks reach that far): vectors that share no pass with lane 0.
    const std::size_t v0 = b0 + chunk0 + 1;
    const std::size_t vl = bl + 2 * chunkl + std::min<std::size_t>(1, chunkl - 1);
    for (const FaultSite site : {FaultSite::WorkerThrow, FaultSite::ArenaCorrupt}) {
      FaultInjector inject(11);
      inject.add_site({site, 0, v0, 0});
      inject.add_site({FaultSite::ArenaCorrupt, 0, v0, 1});
      inject.add_site({site, shards - 1, vl, 0});
      BatchRunner batch(c.pc.program, c.probes,
                        BatchOptions{.num_threads = nt, .inject = &inject});
      const ResilientBatch r = batch.run_resilient(flat, kStream);
      const std::string what = std::string(fault_site_name(site)) +
                               " threads=" + std::to_string(nt);
      ASSERT_EQ(r.status, RunStatus::Complete) << what;
      EXPECT_EQ(r.values, expect) << what;
      EXPECT_EQ(r.quarantined, 0u) << what;
      EXPECT_GE(inject.fired_total(), 2u) << what;
      EXPECT_EQ(r.retries, inject.fired_total()) << what;
    }
    // Every attempt of shard 0 fails: quarantined, then replayed inline.
    FaultInjector inject(12);
    for (unsigned a = 0; a < 3; ++a) {
      inject.add_site({FaultSite::WorkerThrow, 0, v0, a});
    }
    BatchRunner batch(c.pc.program, c.probes,
                      BatchOptions{.num_threads = nt, .inject = &inject});
    const ResilientBatch r = batch.run_resilient(flat, kStream);
    ASSERT_EQ(r.status, RunStatus::Complete) << "quarantine threads=" << nt;
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.values, expect) << "quarantine threads=" << nt;
  }
}

TEST(StatefulLanes, DeadlineStopResumesMidShardBitIdentically) {
  const Netlist nl = make_iscas85_like("c1908", 5);
  const test::WaveCase c = test::make_wave_case(nl, 32);
  const std::vector<Bit> flat = test::lane_stream(nl, kStream, 43);
  const std::vector<Bit> expect = test::wave_expect(nl, c, flat, kStream);
  const std::size_t cols = c.probes.size();
  for (unsigned nt : kThreads) {
    const BatchOptions base{.num_threads = nt};
    const std::size_t shards =
        BatchRunner(c.pc.program, c.probes, base).shard_count(kStream);
    // Stop shard 0 on its second pass: lane 1, offset 1 of its chunk.
    const auto [b0, e0] = shard_bounds(kStream, kLanes, shards, 0);
    const std::size_t chunk = (e0 - b0 + kLanes - 1) / kLanes;
    ASSERT_GE(chunk, 2u) << "threads=" << nt;
    FaultInjector inject(13);
    inject.add_site({FaultSite::DeadlineOverrun, 0, b0 + chunk + 1, 0});
    BatchOptions interrupted = base;
    interrupted.inject = &inject;
    BatchRunner first(c.pc.program, c.probes, interrupted);
    const ResilientBatch stopped = first.run_resilient(flat, kStream);
    ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired) << "threads=" << nt;

    const BatchCheckpoint& ck = stopped.checkpoint;
    EXPECT_EQ(ck.lanes, kLanes);
    const ShardCheckpoint& sc = ck.shards[0];
    EXPECT_EQ(sc.passes, 1u);
    // One pass settled the head of every chunk: the rows are those heads.
    const std::size_t heads = (e0 - b0 + chunk - 1) / chunk;
    EXPECT_EQ(sc.next - sc.begin, heads);
    EXPECT_FALSE(sc.arena.empty()) << "stateful lanes keep their arena";
    for (std::size_t k = 0; k < heads; ++k) {
      const std::size_t v = b0 + k * chunk;
      EXPECT_TRUE(std::equal(sc.rows.begin() + static_cast<std::ptrdiff_t>(k * cols),
                             sc.rows.begin() + static_cast<std::ptrdiff_t>((k + 1) * cols),
                             expect.begin() + static_cast<std::ptrdiff_t>(v * cols)))
          << "checkpoint row of chunk " << k;
    }
    EXPECT_EQ(stopped.vectors_done, kStream - (e0 - b0) + heads);

    const BatchCheckpoint reloaded = checkpoint_from_bytes(checkpoint_to_bytes(ck));
    BatchRunner second(c.pc.program, c.probes, base);
    const ResilientBatch resumed = second.run_resilient(flat, kStream, &reloaded);
    ASSERT_EQ(resumed.status, RunStatus::Complete);
    EXPECT_EQ(resumed.vectors_done, kStream);
    EXPECT_EQ(resumed.values, expect) << "resumed run differs at threads=" << nt;

    // The retained state is part of the snapshot: without it, no resume.
    BatchCheckpoint stripped = reloaded;
    stripped.shards[0].arena.clear();
    try {
      (void)second.run_resilient(flat, kStream, &stripped);
      ADD_FAILURE() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::Corrupt) << e.what();
    }
    // Progress that no number of passes produces is refused too.
    BatchCheckpoint torn = reloaded;
    torn.shards[0].next += 1;
    torn.shards[0].rows.resize(torn.shards[0].rows.size() + cols);
    EXPECT_THROW((void)second.run_resilient(flat, kStream, &torn), CheckpointError);
  }
}

TEST(StatefulLanes, FacadeDeadlineStopResumesBitIdentically) {
  const Netlist nl = make_iscas85_like("c432", 5);
  const auto sim = make_simulator(nl, EngineKind::PCSet);
  const std::vector<Bit> flat = test::lane_stream(nl, kStream, 47);
  const std::vector<Bit> expect = test::oracle_final_rows(nl, flat, kStream);
  for (unsigned nt : kThreads) {
    FaultInjector inject(14);
    inject.add_site({FaultSite::DeadlineOverrun, 0, 9, 0});
    const ResilientResult stopped = run_batch_resilient(
        *sim, flat, ResilientOptions{.num_threads = nt, .inject = &inject});
    ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired) << "threads=" << nt;
    ASSERT_TRUE(stopped.resumable);
    const BatchCheckpoint reloaded =
        checkpoint_from_bytes(checkpoint_to_bytes(stopped.checkpoint));
    const ResilientResult resumed = run_batch_resilient(
        *sim, flat, ResilientOptions{.num_threads = nt, .resume = &reloaded});
    ASSERT_EQ(resumed.status, RunStatus::Complete);
    EXPECT_EQ(resumed.batch.values, expect) << "threads=" << nt;
  }
}

TEST(StatefulLanes, CheckpointAtAnotherLaneCountIsAGeometryError) {
  // The same PC-set program shape compiled with single-bit loads runs one
  // vector per pass: its arena, inputs and probes match the lane-packed
  // program's, only the lane count differs — and a snapshot of one must
  // not resume the other.
  const Netlist nl = make_iscas85_like("c499", 5);
  const test::WaveCase packed = test::make_wave_case(nl, 32);
  const PCSetCompiled scalar = compile_pcset(nl, {}, /*packed=*/false, 32);
  ASSERT_EQ(scalar.program.arena_words, packed.pc.program.arena_words);
  const std::vector<Bit> flat = test::lane_stream(nl, kStream, 53);
  const BatchOptions base{.num_threads = 2};

  const auto stop = [&](const Program& program) {
    FaultInjector inject(15);
    inject.add_site({FaultSite::DeadlineOverrun, 0, 33, 0});
    BatchOptions opts = base;
    opts.inject = &inject;
    BatchRunner runner(program, packed.probes, opts);
    ResilientBatch r = runner.run_resilient(flat, kStream);
    EXPECT_EQ(r.status, RunStatus::DeadlineExpired);
    return std::move(r.checkpoint);
  };
  const BatchCheckpoint at32 = stop(packed.pc.program);
  const BatchCheckpoint at1 = stop(scalar.program);
  EXPECT_EQ(at32.lanes, 32u);
  EXPECT_EQ(at1.lanes, 1u);

  const auto expect_geometry = [&](const Program& program, const BatchCheckpoint& ck) {
    BatchRunner runner(program, packed.probes, base);
    try {
      (void)runner.run_resilient(flat, kStream, &ck);
      ADD_FAILURE() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::Geometry) << e.what();
      EXPECT_NE(std::string(e.what()).find("lanes"), std::string::npos) << e.what();
    }
  };
  expect_geometry(scalar.program, at32);
  expect_geometry(packed.pc.program, at1);
}

}  // namespace
}  // namespace udsim
