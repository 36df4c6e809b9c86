// Resilient-execution layer (DESIGN.md §5f): cooperative cancellation at
// every level of the stack, deterministic fault injection, shard
// retry-with-quarantine bit-identity, the ProgramValidator pre-flight pass,
// and the run_batch_resilient facade.
#include <gtest/gtest.h>

#include <chrono>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/batch_runner.h"
#include "core/simulator.h"
#include "eventsim/event_sim.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "lcc/lcc.h"
#include "netlist/diagnostics.h"
#include "obs/metrics.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "resilience/cancel.h"
#include "resilience/fault_injection.h"
#include "resilience/program_validator.h"
#include "resilience/resilient_run.h"

namespace udsim {
namespace {

Netlist test_dag(std::uint64_t seed) {
  RandomDagParams p;
  p.name = "resil" + std::to_string(seed);
  p.inputs = 8;
  p.outputs = 6;
  p.gates = 120;
  p.depth = 8;
  p.seed = seed;
  p.reach = 1.6;
  return random_dag(p);
}

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

std::vector<Bit> bit_stream(std::size_t pis, std::size_t count,
                            std::uint64_t seed) {
  RandomVectorSource src(pis, seed);
  std::vector<Bit> flat(pis * count);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  return flat;
}

struct LccCase {
  Program program;
  std::vector<ArenaProbe> probes;
};

LccCase lcc_case(const Netlist& nl) {
  LccCase c;
  LccCompiled lcc = compile_lcc(nl);
  for (NetId po : nl.primary_outputs()) c.probes.push_back({lcc.net_var[po.value], 0});
  c.program = std::move(lcc.program);
  return c;
}

// ---- token and poll --------------------------------------------------------

TEST(CancelToken, CancelIsStickyAndDeadlineIsSeparate) {
  CancelToken t;
  EXPECT_EQ(t.stop_reason(), StopReason::None);
  EXPECT_FALSE(t.has_deadline());
  t.request_cancel();
  EXPECT_TRUE(t.cancel_requested());
  EXPECT_EQ(t.stop_reason(), StopReason::Cancelled);

  CancelToken d;
  d.set_deadline_after(std::chrono::nanoseconds(0));
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.deadline_expired());
  EXPECT_EQ(d.stop_reason(), StopReason::Deadline);
  d.clear_deadline();
  EXPECT_EQ(d.stop_reason(), StopReason::None);
}

TEST(CancelPoll, NullTokenAlwaysRunsAndDeadlineIsStrideAmortized) {
  CancelPoll null_poll(nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(null_poll.poll(), StopReason::None);

  CancelToken t;
  t.set_deadline_after(std::chrono::nanoseconds(0));
  CancelPoll poll(&t);
  // The clock is only read every kClockStride polls; force_clock_check makes
  // the very next poll see the expired deadline.
  poll.force_clock_check();
  EXPECT_EQ(poll.poll(), StopReason::Deadline);
  // Cancellation is checked on *every* poll, stride or not.
  CancelToken c;
  CancelPoll cpoll(&c);
  EXPECT_EQ(cpoll.poll(), StopReason::None);
  c.request_cancel();
  EXPECT_EQ(cpoll.poll(), StopReason::Cancelled);
}

TEST(CancelToken, CancelledExceptionCarriesStructuredFields) {
  const Cancelled e(StopReason::Deadline, "kernel.run", 42);
  EXPECT_EQ(e.reason(), StopReason::Deadline);
  EXPECT_EQ(e.site(), "kernel.run");
  EXPECT_EQ(e.vector_index(), 42u);
  EXPECT_NE(std::string(e.what()).find("kernel.run"), std::string::npos);
  EXPECT_EQ(stop_reason_name(StopReason::Cancelled), "cancelled");
}

// ---- engines honor the token ----------------------------------------------

TEST(Cancellation, KernelRunnerStopsBetweenPassesWithConsistentArena) {
  const Netlist nl = test_dag(1);
  const LccCase c = lcc_case(nl);
  const auto in = random_inputs(nl.primary_inputs().size(), 4, 11);
  CancelToken token;
  KernelRunner<std::uint32_t> runner(c.program);
  runner.set_cancel(&token);
  std::vector<std::uint32_t> row(c.program.input_words);
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<std::uint32_t>(in[i]);
  runner.run(row);
  EXPECT_EQ(runner.passes(), 1u);
  std::vector<std::uint64_t> settled;
  runner.save_arena(settled);

  token.request_cancel();
  try {
    runner.run(row);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(e.reason(), StopReason::Cancelled);
    EXPECT_EQ(e.site(), "kernel.run");
  }
  // The stop happened *before* the pass: passes and arena are untouched.
  EXPECT_EQ(runner.passes(), 1u);
  std::vector<std::uint64_t> after;
  runner.save_arena(after);
  EXPECT_EQ(after, settled);
}

TEST(Cancellation, EventEnginesStopBetweenVectors) {
  const Netlist nl = test_dag(2);
  std::vector<Bit> row(nl.primary_inputs().size(), 1);
  EventSim2 e2(nl);
  CancelToken token;
  e2.set_cancel(&token);
  e2.step(row);
  token.request_cancel();
  EXPECT_THROW(e2.step(row), Cancelled);

  EventSim3 e3(nl);
  e3.set_cancel(&token);
  EXPECT_THROW(e3.step(row), Cancelled);
  e3.set_cancel(nullptr);
  EXPECT_NO_THROW(e3.step(row));
}

TEST(Cancellation, GuardedCompilersStopAtPhaseBoundaries) {
  const Netlist nl = test_dag(3);
  CancelToken token;
  token.request_cancel();
  CompileGuard guard;
  guard.cancel = &token;
  EXPECT_THROW((void)compile_lcc(nl, /*packed=*/true, 32, guard), Cancelled);
  EXPECT_THROW((void)compile_pcset(nl, std::span<const NetId>{}, true, 32, guard),
               Cancelled);
  EXPECT_THROW((void)compile_parallel(nl, {}, guard), Cancelled);
  try {
    (void)compile_lcc(nl, true, 32, guard);
  } catch (const Cancelled& e) {
    EXPECT_EQ(e.site(), "compile.levelize");
  }
}

TEST(Cancellation, SimulatorFacadeStepAndBatchHonorTheToken) {
  const Netlist nl = test_dag(4);
  const auto flat = bit_stream(nl.primary_inputs().size(), 30, 44);
  for (EngineKind kind : {EngineKind::ZeroDelayLcc, EngineKind::Event2}) {
    const auto sim = make_simulator(nl, kind);
    CancelToken token;
    sim->set_cancel(&token);
    EXPECT_NO_THROW((void)sim->run_batch(flat, 2));
    token.request_cancel();
    EXPECT_THROW((void)sim->run_batch(flat, 2), Cancelled) << engine_name(kind);
    EXPECT_THROW(sim->step(std::span<const Bit>(flat.data(),
                                                nl.primary_inputs().size())),
                 Cancelled)
        << engine_name(kind);
    sim->set_cancel(nullptr);
    EXPECT_NO_THROW((void)sim->run_batch(flat, 2));
  }
}

// ---- batch layer: structured stops, retries, quarantine --------------------

TEST(BatchResilience, PreCancelledRunReturnsImmediatelyWithEmptyCheckpoint) {
  const Netlist nl = test_dag(5);
  const LccCase c = lcc_case(nl);
  const std::size_t count = 40;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 55);
  CancelToken token;
  token.request_cancel();
  MetricsRegistry reg;
  Diagnostics diag;
  BatchRunner runner(c.program, c.probes,
                     BatchOptions{.num_threads = 2, .min_chunk = 4,
                                  .metrics = &reg, .cancel = &token,
                                  .diag = &diag});
  const ResilientBatch r = runner.run_resilient(in, count);
  EXPECT_EQ(r.status, RunStatus::Cancelled);
  EXPECT_EQ(r.vectors_done, 0u);
  EXPECT_EQ(r.checkpoint.vectors_done(), 0u);
  EXPECT_EQ(r.checkpoint.num_vectors, count);
  EXPECT_EQ(reg.counter("resil.cancelled").value(), 1u);
  EXPECT_TRUE(diag.has(DiagCode::RunCancelled));
  // run() surfaces the same stop as a structured exception instead.
  EXPECT_THROW((void)runner.run(in, count), Cancelled);
}

TEST(BatchResilience, ZeroVectorsShortCircuitsWithNoMetricsTraffic) {
  const Netlist nl = test_dag(6);
  const LccCase c = lcc_case(nl);
  MetricsRegistry reg;
  BatchRunner runner(c.program, c.probes,
                     BatchOptions{.num_threads = 3, .metrics = &reg});
  EXPECT_TRUE(runner.run({}, 0).empty());
  const ResilientBatch r = runner.run_resilient({}, 0);
  EXPECT_EQ(r.status, RunStatus::Complete);
  EXPECT_TRUE(r.values.empty());
  // No seam replay, no pool dispatch, no metrics traffic.
  EXPECT_EQ(reg.counter("batch.runs").value(), 0u);
  EXPECT_EQ(reg.counter("batch.shards").value(), 0u);
  EXPECT_EQ(reg.counter("sim.vectors").value(), 0u);
}

TEST(FaultInjector, DecisionsArePureFunctionsOfTheSeed) {
  FaultInjector a(1234), b(1234), other(1235);
  bool any = false, any_differs = false;
  a.set_rate(FaultSite::WorkerThrow, 500, /*max_attempt=*/1);
  b.set_rate(FaultSite::WorkerThrow, 500, 1);
  other.set_rate(FaultSite::WorkerThrow, 500, 1);
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    for (std::uint64_t v = 0; v < 200; ++v) {
      const bool fa = a.fires(FaultSite::WorkerThrow, shard, v, 0);
      EXPECT_EQ(fa, b.fires(FaultSite::WorkerThrow, shard, v, 0));
      any |= fa;
      any_differs |= (fa != other.fires(FaultSite::WorkerThrow, shard, v, 0));
      // Beyond max_attempt the injector always stands down: retries
      // eventually run clean.
      EXPECT_FALSE(a.fires(FaultSite::WorkerThrow, shard, v, 2));
    }
  }
  EXPECT_TRUE(any) << "a 5% rate over 800 passes never fired";
  EXPECT_TRUE(any_differs) << "different seeds produced identical decisions";

  FaultInjector planted(1);
  planted.add_site({FaultSite::AllocFail, 3, 17, 2});
  EXPECT_TRUE(planted.fires(FaultSite::AllocFail, 3, 17, 2));
  EXPECT_FALSE(planted.fires(FaultSite::AllocFail, 3, 17, 1));
  EXPECT_FALSE(planted.fires(FaultSite::AllocFail, 3, 16, 2));
  EXPECT_FALSE(planted.fires(FaultSite::WorkerThrow, 3, 17, 2));
  // A multi-vector pass [first, first + n) fires when it covers the site.
  EXPECT_TRUE(planted.fires(FaultSite::AllocFail, 3, 0, 2, 32));
  EXPECT_TRUE(planted.fires(FaultSite::AllocFail, 3, 17, 2, 32));
  EXPECT_FALSE(planted.fires(FaultSite::AllocFail, 3, 0, 2, 17));
  EXPECT_FALSE(planted.fires(FaultSite::AllocFail, 3, 18, 2, 32));
  EXPECT_TRUE(planted.fire(FaultSite::AllocFail, 3, 17, 2));
  EXPECT_EQ(planted.fired(FaultSite::AllocFail), 1u);
  EXPECT_EQ(planted.fired_total(), 1u);
}

/// Inject `site` at one (shard, vector) for attempts [0, fail_attempts) and
/// expect the batch to still produce bit-identical output, with the
/// given retry/quarantine counts.
void expect_recovery(FaultSite site, unsigned fail_attempts,
                     unsigned retry_limit, std::uint64_t want_retries,
                     std::uint64_t want_quarantined) {
  const Netlist nl = test_dag(7);
  const LccCase c = lcc_case(nl);
  const std::size_t count = 48;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 77);
  BatchRunner clean(c.program, c.probes,
                    BatchOptions{.num_threads = 3, .min_chunk = 4});
  const auto expect = clean.run(in, count);

  // 48 vectors over 3 shards: shard 1 spans [16, 32). AllocFail is probed
  // once at shard entry (vector = shard begin); the others fire mid-pass.
  const std::size_t site_vector = site == FaultSite::AllocFail ? 16 : 20;
  FaultInjector inject(42);
  for (unsigned a = 0; a < fail_attempts; ++a) {
    inject.add_site({site, 1, site_vector, a});
  }
  MetricsRegistry reg;
  Diagnostics diag;
  BatchRunner faulty(c.program, c.probes,
                     BatchOptions{.num_threads = 3, .min_chunk = 4,
                                  .metrics = &reg, .inject = &inject,
                                  .retry_limit = retry_limit, .diag = &diag});
  const ResilientBatch r = faulty.run_resilient(in, count);
  EXPECT_EQ(r.status, RunStatus::Complete);
  EXPECT_EQ(r.values, expect) << fault_site_name(site)
                              << ": recovered run is not bit-identical";
  EXPECT_EQ(r.retries, want_retries);
  EXPECT_EQ(r.quarantined, want_quarantined);
  EXPECT_EQ(reg.counter("resil.retries").value(), want_retries);
  EXPECT_EQ(reg.counter("resil.quarantined").value(), want_quarantined);
  EXPECT_EQ(diag.count(DiagCode::ShardRetry), want_retries);
  EXPECT_EQ(diag.count(DiagCode::ShardQuarantined), want_quarantined);
  EXPECT_EQ(inject.fired(site), fail_attempts);
}

TEST(BatchResilience, WorkerThrowIsRetriedFromTheSeamBitIdentically) {
  expect_recovery(FaultSite::WorkerThrow, 1, 2, 1, 0);
}

TEST(BatchResilience, ArenaCorruptionIsTrappedAndRetriedBitIdentically) {
  expect_recovery(FaultSite::ArenaCorrupt, 2, 2, 2, 0);
}

TEST(BatchResilience, AllocationFailureIsRetried) {
  expect_recovery(FaultSite::AllocFail, 1, 2, 1, 0);
}

TEST(BatchResilience, ExhaustedRetriesQuarantineThenSequentialReplayRecovers) {
  // Fails attempts 0 and 1 with retry_limit 1: one retry, then quarantine;
  // the sequential replay (attempt retry_limit + 1 = 2) runs clean and the
  // run still completes bit-identically.
  expect_recovery(FaultSite::WorkerThrow, 2, 1, 1, 1);
}

TEST(BatchResilience, QuarantineReplayFailurePropagates) {
  const Netlist nl = test_dag(8);
  const LccCase c = lcc_case(nl);
  const std::size_t count = 32;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 88);
  FaultInjector inject(9);
  // Fail every attempt including the sequential quarantine replay (attempt
  // retry_limit + 1 = 2): a genuine unrecoverable error.
  for (unsigned a = 0; a <= 2; ++a) inject.add_site({FaultSite::WorkerThrow, 0, 5, a});
  BatchRunner runner(c.program, c.probes,
                     BatchOptions{.num_threads = 2, .min_chunk = 4,
                                  .inject = &inject, .retry_limit = 1});
  EXPECT_THROW((void)runner.run_resilient(in, count), InjectedFault);
}

TEST(BatchResilience, InjectionRunsAreDeterministicGivenTheSeed) {
  const Netlist nl = test_dag(9);
  const LccCase c = lcc_case(nl);
  const std::size_t count = 64;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 99);
  const auto run_once = [&](std::uint64_t seed, std::uint64_t* retries,
                            std::uint64_t* fired) {
    FaultInjector inject(seed);
    inject.set_rate(FaultSite::WorkerThrow, 300, /*max_attempt=*/0);
    BatchRunner runner(c.program, c.probes,
                       BatchOptions{.num_threads = 3, .min_chunk = 4,
                                    .inject = &inject, .retry_limit = 3});
    const ResilientBatch r = runner.run_resilient(in, count);
    EXPECT_EQ(r.status, RunStatus::Complete);
    *retries = r.retries;
    *fired = inject.fired_total();
    return r.values;
  };
  std::uint64_t retries1 = 0, retries2 = 0, fired1 = 0, fired2 = 0;
  const auto v1 = run_once(1111, &retries1, &fired1);
  const auto v2 = run_once(1111, &retries2, &fired2);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(retries1, retries2);
  EXPECT_EQ(fired1, fired2);
  EXPECT_GT(fired1, 0u) << "rate chosen to fire at least once";
  // And the values still equal a clean run: injection never changes results.
  BatchRunner clean(c.program, c.probes,
                    BatchOptions{.num_threads = 3, .min_chunk = 4});
  EXPECT_EQ(v1, clean.run(in, count));
}

TEST(BatchResilience, MidRunCancelProducesAResumableCheckpoint) {
  const Netlist nl = test_dag(10);
  const LccCase c = lcc_case(nl);
  const std::size_t count = 60;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 1010);
  BatchRunner clean(c.program, c.probes,
                    BatchOptions{.num_threads = 2, .min_chunk = 8});
  const auto expect = clean.run(in, count);

  FaultInjector inject(3);
  inject.add_site({FaultSite::DeadlineOverrun, 0, 7, 0});
  inject.add_site({FaultSite::DeadlineOverrun, 1, 40, 0});
  BatchRunner first(c.program, c.probes,
                    BatchOptions{.num_threads = 2, .min_chunk = 8,
                                 .inject = &inject});
  const ResilientBatch stopped = first.run_resilient(in, count);
  ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired);
  ASSERT_LT(stopped.vectors_done, count);
  // The rows the checkpoint claims are final match the clean run already.
  const std::size_t cols = c.probes.size();
  for (const ShardCheckpoint& s : stopped.checkpoint.shards) {
    for (std::size_t v = s.begin; v < s.next; ++v) {
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(stopped.values[v * cols + j], expect[v * cols + j]);
      }
    }
  }
  BatchRunner second(c.program, c.probes,
                     BatchOptions{.num_threads = 2, .min_chunk = 8});
  const ResilientBatch resumed =
      second.run_resilient(in, count, &stopped.checkpoint);
  EXPECT_EQ(resumed.status, RunStatus::Complete);
  EXPECT_EQ(resumed.values, expect);
}

// ---- program validator -----------------------------------------------------

TEST(ProgramValidator, AcceptsEveryCompiledEngineProgram) {
  const Netlist nl = test_dag(11);
  constexpr EngineKind kCompiled[] = {
      EngineKind::ZeroDelayLcc,        EngineKind::PCSet,
      EngineKind::Parallel,            EngineKind::ParallelTrimmed,
      EngineKind::ParallelPathTracing, EngineKind::ParallelCycleBreaking,
      EngineKind::ParallelCombined,
  };
  for (EngineKind kind : kCompiled) {
    const auto sim = make_simulator(nl, kind);
    const Program* p = sim->compiled_program();
    ASSERT_NE(p, nullptr) << engine_name(kind);
    const auto probes = sim->output_probes();
    ASSERT_FALSE(probes.empty());
    Diagnostics diag;
    EXPECT_TRUE(validate_program(*p, ValidateOptions{.probes = probes}, diag))
        << engine_name(kind) << ": " << validate_program_brief(*p);
    EXPECT_TRUE(diag.has(DiagCode::ProgramAccepted));
    EXPECT_EQ(diag.count(DiagSeverity::Error), 0u);
  }
  // The interpreted engines have no program to validate.
  EXPECT_EQ(make_simulator(nl, EngineKind::Event2)->compiled_program(), nullptr);
}

/// Each mutation class must be rejected with its own DiagCode.
TEST(ProgramValidator, RejectsEachMutationClassWithItsOwnCode) {
  const Netlist nl = test_dag(12);
  const LccCase c = lcc_case(nl);
  const ValidateOptions opts{.probes = c.probes};
  const auto expect_reject = [&](Program p, DiagCode want, const char* what) {
    Diagnostics diag;
    EXPECT_FALSE(validate_program(p, opts, diag)) << what;
    EXPECT_TRUE(diag.has(want))
        << what << ": wanted " << diag_code_name(want);
    EXPECT_FALSE(diag.has(DiagCode::ProgramAccepted)) << what;
    EXPECT_FALSE(validate_program_brief(p, opts).empty()) << what;
  };

  {
    Program p = c.program;
    p.word_bits = 48;
    expect_reject(std::move(p), DiagCode::ProgramWordSize, "word size");
  }
  {
    Program p = c.program;
    p.ops[p.ops.size() / 2].dst = p.arena_words + 7;
    expect_reject(std::move(p), DiagCode::ProgramOpBounds, "dst bounds");
  }
  {
    Program p = c.program;
    p.ops.push_back({OpCode::Copy, 0, 0, p.arena_words + 1, 0});
    expect_reject(std::move(p), DiagCode::ProgramOpBounds, "src bounds");
  }
  {
    Program p = c.program;
    p.ops.push_back({static_cast<OpCode>(250), 0, 0, 0, 0});
    expect_reject(std::move(p), DiagCode::ProgramOpBounds, "unknown opcode");
  }
  {
    Program p = c.program;
    p.ops[0].a = p.input_words + 3;  // op 0 is a Load
    expect_reject(std::move(p), DiagCode::ProgramInputBounds, "input bounds");
  }
  {
    Program p = c.program;
    p.ops.push_back({OpCode::Shl, static_cast<std::uint8_t>(p.word_bits), 0, 0, 0});
    expect_reject(std::move(p), DiagCode::ProgramShiftRange, "shift range");
  }
  {
    Program p = c.program;
    p.ops.push_back({OpCode::FunnelL, 0, 0, 0, 0});
    expect_reject(std::move(p), DiagCode::ProgramShiftRange, "zero funnel");
  }
  {
    Program p = c.program;
    p.arena_init.push_back({p.arena_words + 2, 1});
    expect_reject(std::move(p), DiagCode::ProgramInitBounds, "init bounds");
  }
  {
    Diagnostics diag;
    const std::vector<ArenaProbe> bad{{c.program.arena_words + 1, 0}};
    EXPECT_FALSE(validate_program(c.program,
                                  ValidateOptions{.probes = bad}, diag));
    EXPECT_TRUE(diag.has(DiagCode::ProgramProbeBounds));
  }
  {
    // Scratch read-before-write: the injected first op reads a fresh word
    // nothing ever writes. The check only engages when the caller declares
    // which words are legitimately persistent.
    Program p = c.program;
    const std::uint32_t scratch = p.arena_words;
    p.arena_words += 1;
    p.ops.insert(p.ops.begin(), {OpCode::Copy, 0, 0, scratch, 0});
    ValidateOptions sopts{.probes = c.probes};
    Diagnostics without;
    EXPECT_TRUE(validate_program(p, sopts, without));
    const std::vector<std::uint32_t> persistent{0};
    sopts.persistent = persistent;
    Diagnostics with;
    EXPECT_FALSE(validate_program(p, sopts, with));
    EXPECT_TRUE(with.has(DiagCode::ProgramScratchRead));
  }
  // A defect flood is capped, not unbounded.
  {
    Program p = c.program;
    for (int i = 0; i < 100; ++i) {
      p.ops.push_back({OpCode::Copy, 0, p.arena_words + 9, 0, 0});
    }
    Diagnostics diag;
    EXPECT_FALSE(validate_program(p, opts, diag));
    EXPECT_LE(diag.count(DiagSeverity::Error), 17u);
  }
}

TEST(ProgramValidator, FallbackChainRevalidatesAndFacadeRejects) {
  const Netlist nl = test_dag(13);
  // The default chain's programs are all valid: selection succeeds and the
  // winner's validation note is on record.
  Diagnostics diag;
  SimPolicy policy;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);
  EXPECT_TRUE(diag.has(DiagCode::EngineSelected));
  EXPECT_TRUE(diag.has(DiagCode::ProgramAccepted));

  // A corrupted program handed to the resilient facade is rejected before
  // any pass executes.
  const LccCase c = lcc_case(nl);
  Program bad = c.program;
  bad.ops[0].dst = bad.arena_words + 1;
  Diagnostics vdiag;
  EXPECT_FALSE(validate_program(bad, ValidateOptions{.probes = c.probes}, vdiag));
  EXPECT_THROW(
      { throw ProgramRejected(validate_program_brief(bad)); },
      ProgramRejected);
}

// ---- run_batch_resilient facade -------------------------------------------

TEST(ResilientRun, CompiledEngineCheckpointsAndResumesThroughTheFacade) {
  const Netlist nl = test_dag(14);
  const std::size_t count = 50;
  const auto flat = bit_stream(nl.primary_inputs().size(), count, 1414);
  const auto sim = make_simulator(nl, EngineKind::ParallelCombined);
  const BatchResult clean = sim->run_batch(flat, 2);

  FaultInjector inject(5);
  inject.add_site({FaultSite::DeadlineOverrun, 0, 9, 0});
  ResilientOptions opts;
  opts.num_threads = 2;
  opts.inject = &inject;
  MetricsRegistry reg;
  Diagnostics diag;
  opts.metrics = &reg;
  opts.diag = &diag;
  const ResilientResult stopped = run_batch_resilient(*sim, flat, opts);
  EXPECT_EQ(stopped.status, RunStatus::DeadlineExpired);
  EXPECT_TRUE(stopped.resumable);
  EXPECT_LT(stopped.vectors_done, count);
  EXPECT_EQ(reg.counter("resil.deadline").value(), 1u);
  EXPECT_TRUE(diag.has(DiagCode::RunCancelled));

  ResilientOptions resume_opts;
  resume_opts.num_threads = 2;
  resume_opts.resume = &stopped.checkpoint;
  resume_opts.diag = &diag;
  const ResilientResult resumed = run_batch_resilient(*sim, flat, resume_opts);
  EXPECT_EQ(resumed.status, RunStatus::Complete);
  EXPECT_EQ(resumed.batch.values, clean.values);
  EXPECT_TRUE(diag.has(DiagCode::CheckpointResumed));
}

TEST(ResilientRun, InterpretedEngineCancelsButIsNotResumable) {
  const Netlist nl = test_dag(15);
  const auto flat = bit_stream(nl.primary_inputs().size(), 20, 1515);
  const auto sim = make_simulator(nl, EngineKind::Event3);
  CancelToken token;
  sim->set_cancel(&token);
  ResilientOptions opts;
  opts.cancel = &token;
  const ResilientResult ok = run_batch_resilient(*sim, flat, opts);
  EXPECT_EQ(ok.status, RunStatus::Complete);
  EXPECT_FALSE(ok.resumable);
  EXPECT_EQ(ok.vectors_done, 20u);

  token.request_cancel();
  const ResilientResult stopped = run_batch_resilient(*sim, flat, opts);
  EXPECT_EQ(stopped.status, RunStatus::Cancelled);
  EXPECT_FALSE(stopped.resumable);
  EXPECT_TRUE(stopped.batch.values.empty());
}

}  // namespace
}  // namespace udsim
