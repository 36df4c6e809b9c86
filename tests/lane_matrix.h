// Shared helpers of the stateful-lanes differential matrix (DESIGN.md §5c):
// PC-set batches, where lane k of a pass carries contiguous chunk k of each
// shard, checked against OracleSim and a one-vector-per-pass KernelRunner
// replay.
//
// A settled (final) value is a function of the current vector alone, so the
// primary-output rows of run_batch cannot see the state a lane carries from
// its predecessor. The PC-set PRINT grid can: it samples every monitored
// net at every time of its PC-set, and the time-0 values are the previous
// vector's settled ones. The wave cases below probe that grid, so a lane
// that starts from the wrong state — a missing seam pass, or a lane 0 that
// is not reset — shows up as a wrong row. The grid reconstructs a net's
// history from its PC-set times alone, which presumes a settled previous
// state; the all-zero reset arena is not one, so on the first vector the
// grid follows the replay from that arena rather than the oracle.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "core/kernel_runner.h"
#include "core/simulator.h"
#include "harness/vectors.h"
#include "ir/wide_word.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "pcsim/pcset_sim.h"
#include "resilience/resilient_run.h"

namespace udsim::test {

/// Row-major random stream: one 0/1 Bit per primary input per vector.
inline std::vector<Bit> lane_stream(const Netlist& nl, std::size_t count,
                                    std::uint64_t seed) {
  const std::size_t pis = nl.primary_inputs().size();
  RandomVectorSource src(pis, seed);
  std::vector<Bit> flat(count * pis);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  return flat;
}

/// The vector counts of the matrix at `lanes` vectors per pass: a single
/// vector, a pass short of full, a full pass, one over, several passes with
/// a ragged tail, and a fixed 200.
inline std::vector<std::size_t> lane_matrix_counts(std::size_t lanes) {
  return {1, lanes - 1, lanes, lanes + 1, 3 * lanes + 5, 200};
}

/// A lane-packed PC-set program whose probes are its PRINT grid: for every
/// print time, every monitored net (the primary outputs).
struct WaveCase {
  PCSetCompiled pc;
  std::vector<ArenaProbe> probes;
};

inline WaveCase make_wave_case(const Netlist& nl, int word_bits) {
  WaveCase c{compile_pcset(nl, {}, /*packed=*/true, word_bits), {}};
  for (const std::vector<std::uint32_t>& row : c.pc.print_vars) {
    for (std::uint32_t word : row) c.probes.push_back({word, 0});
  }
  return c;
}

/// OracleSim's values on the PRINT grid of `c`, one row per vector.
inline std::vector<Bit> oracle_wave_rows(const Netlist& nl, const WaveCase& c,
                                         std::span<const Bit> flat,
                                         std::size_t count) {
  OracleSim oracle(nl);
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> rows;
  rows.reserve(count * c.probes.size());
  for (std::size_t v = 0; v < count; ++v) {
    const Waveform wf = oracle.step(flat.subspan(v * pis, pis));
    for (int t : c.pc.print_times) {
      for (NetId m : c.pc.monitored) rows.push_back(wf.at(m, t));
    }
  }
  return rows;
}

/// OracleSim's settled primary outputs, one row per vector.
inline std::vector<Bit> oracle_final_rows(const Netlist& nl,
                                          std::span<const Bit> flat,
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

/// One vector per pass from the reset arena, in stream order: the
/// sequential definition every batch layout must reproduce.
template <class Word>
std::vector<Bit> kernel_replay_rows(const Program& p,
                                    const std::vector<ArenaProbe>& probes,
                                    std::span<const Bit> in, std::size_t count) {
  KernelRunner<Word> runner(p);
  std::vector<Word> row(p.input_words);
  std::vector<Bit> out;
  out.reserve(count * probes.size());
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t i = 0; i < p.input_words; ++i) {
      row[i] = static_cast<Word>(std::uint64_t{in[v * p.input_words + i] & 1u});
    }
    runner.run(row);
    for (const ArenaProbe& pr : probes) out.push_back(runner.bit(pr.word, pr.bit));
  }
  return out;
}

inline std::vector<Bit> kernel_replay_rows_any(const Program& p,
                                               const std::vector<ArenaProbe>& probes,
                                               std::span<const Bit> in,
                                               std::size_t count) {
  switch (p.word_bits) {
    case 64:
      return kernel_replay_rows<std::uint64_t>(p, probes, in, count);
#if UDSIM_HAS_W128
    case 128:
      return kernel_replay_rows<u128>(p, probes, in, count);
#endif
    case 256:
      return kernel_replay_rows<u256>(p, probes, in, count);
    default:
      return kernel_replay_rows<std::uint32_t>(p, probes, in, count);
  }
}

/// The PRINT-grid rows a batch of `c` over the first `count` vectors of
/// `flat` must produce: the one-vector-per-pass replay from the reset
/// arena, after checking that it equals OracleSim on every vector but the
/// first (see the header comment).
inline std::vector<Bit> wave_expect(const Netlist& nl, const WaveCase& c,
                                    std::span<const Bit> flat, std::size_t count) {
  const std::vector<Bit> replay =
      kernel_replay_rows_any(c.pc.program, c.probes, flat, count);
  const std::vector<Bit> oracle = oracle_wave_rows(nl, c, flat, count);
  const auto from_second = static_cast<std::ptrdiff_t>(c.probes.size());
  EXPECT_TRUE(count < 2 || std::equal(replay.begin() + from_second, replay.end(),
                                      oracle.begin() + from_second))
      << nl.name() << " @ " << c.pc.program.word_bits
      << ": the sequential replay disagrees with the oracle";
  return replay;
}

/// The first `count` rows of a row-major matrix with `cols` columns.
inline std::vector<Bit> first_rows(const std::vector<Bit>& rows,
                                   std::size_t count, std::size_t cols) {
  return {rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(count * cols)};
}

/// The wave case over the first `count` vectors of `flat` at `threads`,
/// through BatchRunner::run and run_resilient, equals `expect` (all rows
/// of the full stream), and runs word_bits vectors per pass.
inline void expect_wave_batch(const WaveCase& c, std::span<const Bit> flat,
                              std::size_t count, const std::vector<Bit>& expect,
                              unsigned threads, const std::string& what) {
  const std::vector<Bit> want = first_rows(expect, count, c.probes.size());
  const auto in = flat.first(count * c.pc.program.input_words);
  MetricsRegistry reg;
  BatchRunner batch(c.pc.program, c.probes,
                    BatchOptions{.num_threads = threads, .metrics = &reg});
  ASSERT_EQ(batch.layout(), LaneClass::Stateful) << what;
  const std::size_t lanes = batch.lanes();
  ASSERT_EQ(lanes, static_cast<std::size_t>(c.pc.program.word_bits)) << what;
  EXPECT_EQ(batch.run(in, count), want) << what << " (run)";
  const std::uint64_t passes = (count + lanes - 1) / lanes;
  EXPECT_EQ(reg.counter("batch.passes").value(), passes) << what;
  EXPECT_EQ(reg.counter("sim.vectors").value(), count) << what;
  EXPECT_EQ(reg.counter("exec.ops").value(), c.pc.program.ops.size() * passes)
      << what;
  const ResilientBatch r = batch.run_resilient(in, count);
  EXPECT_EQ(r.status, RunStatus::Complete) << what;
  EXPECT_EQ(r.vectors_done, count) << what;
  EXPECT_EQ(r.values, want) << what << " (run_resilient)";
}

/// The facade: run_batch and run_batch_resilient of a PC-set Simulator over
/// the first `count` vectors of `flat` equal the oracle's settled rows,
/// with word_bits vectors per pass and exec.ops == compile.ops × passes.
inline void expect_facade_batch(const Simulator& sim, std::span<const Bit> flat,
                                std::size_t count, const std::vector<Bit>& expect,
                                unsigned threads, const std::string& what) {
  const Netlist& nl = sim.netlist();
  const std::vector<Bit> want =
      first_rows(expect, count, nl.primary_outputs().size());
  const auto in = flat.first(count * nl.primary_inputs().size());
  const Program& p = *sim.compiled_program();
  const std::size_t lanes = static_cast<std::size_t>(p.word_bits);
  const std::uint64_t passes = (count + lanes - 1) / lanes;
  MetricsRegistry reg;
  const BatchResult b =
      sim.run_batch(in, BatchRunOptions{.num_threads = threads, .metrics = &reg});
  EXPECT_EQ(b.values, want) << what << " (run_batch)";
  EXPECT_EQ(reg.counter("batch.lanes").value(), lanes) << what;
  EXPECT_EQ(reg.counter("batch.passes").value(), passes) << what;
  EXPECT_EQ(reg.counter("exec.ops").value(), p.ops.size() * passes) << what;
  const ResilientResult r =
      run_batch_resilient(sim, in, ResilientOptions{.num_threads = threads});
  EXPECT_EQ(r.status, RunStatus::Complete) << what;
  EXPECT_EQ(r.batch.values, want) << what << " (run_batch_resilient)";
}

}  // namespace udsim::test
