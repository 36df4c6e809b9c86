// Multi-threaded batch execution of compiled simulation programs.
//
// A compiled unit-delay simulation has exactly one piece of cross-vector
// state: the settled (final) value of every net, retained in the word arena
// from one executor pass to the next. Those settled values are a pure
// function of the *current* input vector (the circuits are acyclic), so a
// vector stream can be sharded: a worker that first replays the vector
// immediately preceding its shard — discarding the outputs — reconstructs
// the exact retained state the sequential run would have carried into the
// shard, and every subsequent pass is bit-identical to sequential replay.
// That one discarded pass is the entire synchronization cost; shards never
// communicate while running.
//
// Lanes as shards (DESIGN.md §5c): a program with no cross-vector state at
// all and only lane-wise ops (ir/verify.h lanes_independent — today the
// zero-delay LCC program, which loads whole input words) settles word_bits
// vectors per pass instead: lane k of a pass carries vector base + k. The
// stream is block-transposed into input words and the probe words back into
// rows (core/lane_staging.h). Shard boundaries then fall on multiples of
// the lane count and need no seam replay; every other program keeps one
// vector per pass.
//
// Determinism guarantee: run() returns the same bits for every thread
// count, equal to a sequential KernelRunner replay from the reset arena
// (enforced by tests/batch_runner_test.cpp).
//
// Resilience (DESIGN.md §5f): the same one-piece-of-state property makes
// shards independently retryable and the run checkpointable. run_resilient()
// polls a CancelToken once per executor pass and, instead of tearing the run
// down, returns a structured ResilientBatch whose BatchCheckpoint resumes
// bit-identically; a shard whose body throws is retried from its seam up to
// `retry_limit` times and then quarantined — replayed sequentially on the
// calling thread after the pool drains. Every retry/quarantine/cancel event
// is counted under resil.* and reported through Diagnostics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <string>
#include <utility>

#include "core/kernel_runner.h"
#include "core/thread_pool.h"
#include "ir/program.h"
#include "netlist/logic.h"
#include "obs/pass_cost.h"
#include "resilience/cancel.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"

namespace udsim {

class Diagnostics;

struct BatchOptions {
  unsigned num_threads = 0;    ///< worker threads; 0 = all hardware threads
  std::size_t min_chunk = 16;  ///< smallest shard worth a seam-replay pass
  /// Optional observability sink (DESIGN.md §5e). Payload passes bump the
  /// exact execution counters (sim.vectors counts vectors; exec.* and
  /// batch.passes count passes, so exec.ops == compile.ops × batch.passes)
  /// — identical for every thread count; the sharding cost itself is
  /// recorded separately (batch.seam_vectors / batch.seam_ops, per-shard
  /// batch.shard.* timings) so the payload counters stay a
  /// cross-thread-count invariant. batch.lanes holds the vectors per pass.
  MetricsRegistry* metrics = nullptr;
  /// Engine-specific per-pass constants added per payload pass (see
  /// ExecCounters::attach extras).
  std::vector<std::pair<std::string, std::uint64_t>> extra_pass_cost{};
  /// Cooperative stop: polled once per executor pass (one relaxed load + one
  /// branch; one dead branch when null). run() raises Cancelled; the
  /// resilient entry point returns a checkpoint instead.
  const CancelToken* cancel = nullptr;
  /// Deterministic fault-injection harness (tests/bench only).
  FaultInjector* inject = nullptr;
  /// Shard attempts after the first before the shard is quarantined.
  unsigned retry_limit = 2;
  /// Retry / quarantine / cancel events as structured records.
  Diagnostics* diag = nullptr;
  /// Request-trace id of the service request this batch serves (0 = none).
  /// Shards run on pool threads, which cannot see the submitter's
  /// thread-local RequestTraceScope — this is the explicitly-threaded hop:
  /// each shard re-enters the scope so its batch.shard span (and anything
  /// beneath it) carries the "request" arg in the trace export.
  std::uint64_t trace_id = 0;
};

/// How a resilient run ended.
enum class RunStatus : std::uint8_t {
  Complete,        ///< every vector executed
  Cancelled,       ///< stopped by CancelToken::request_cancel
  DeadlineExpired, ///< stopped by the token's deadline (or injected overrun)
};

[[nodiscard]] std::string_view run_status_name(RunStatus s) noexcept;

/// Structured result of BatchRunner::run_resilient. When status is not
/// Complete, `values` holds valid rows exactly for the vectors recorded in
/// `checkpoint` (other rows are zero) and `checkpoint` resumes the run
/// bit-identically under the same geometry (program, vector count, thread
/// count, min_chunk).
struct ResilientBatch {
  RunStatus status = RunStatus::Complete;
  std::vector<Bit> values;
  BatchCheckpoint checkpoint;      ///< populated when status != Complete
  std::uint64_t vectors_done = 0;  ///< rows of `values` that are final
  std::uint64_t retries = 0;       ///< shard attempts beyond the first
  std::uint64_t quarantined = 0;   ///< shards degraded to sequential replay
};

/// Runs a vector stream through one compiled `Program` on a worker pool:
/// one private KernelRunner arena per shard, seam replay at shard
/// boundaries (or lanes as shards for lane-independent programs), outputs
/// merged in submission order. Works over any program the compiled engines
/// produce (LCC, PC-set, parallel and its optimized variants) at any
/// dispatched word size (32/64/128/256 bits; wide arenas checkpoint as
/// word_bits/64 uint64 carrier lanes per word).
class BatchRunner {
 public:
  /// `probes` are the arena bits to sample after every vector (one output
  /// column per probe); `program` must outlive the runner.
  BatchRunner(const Program& program, std::vector<ArenaProbe> probes,
              BatchOptions options = {});

  /// Run `num_vectors` vectors. `inputs` is row-major with
  /// `program.input_words` Bits per vector; bit 0 of each is the value.
  /// Returns a row-major Bit matrix of `num_vectors` rows ×
  /// `probes().size()` columns, in submission order.
  /// With a cancel token attached, an early stop raises Cancelled (the
  /// partial work is discarded; state is never torn). `num_vectors == 0`
  /// short-circuits to an empty result: no seam replay, no pool dispatch,
  /// no metrics traffic.
  [[nodiscard]] std::vector<Bit> run(std::span<const Bit> inputs,
                                     std::size_t num_vectors);

  /// run() with structured stop handling: cancellation/deadline returns a
  /// RunStatus plus a resumable checkpoint instead of throwing, failed
  /// shards are retried and quarantined per BatchOptions, and `resume`
  /// (optional) continues a previous snapshot — the combined run is
  /// bit-identical to an uninterrupted one. Throws CheckpointError
  /// (Kind::Geometry) when `resume` does not match this runner's geometry,
  /// and rethrows a shard's error only after its sequential quarantine
  /// replay also failed.
  [[nodiscard]] ResilientBatch run_resilient(
      std::span<const Bit> inputs, std::size_t num_vectors,
      const BatchCheckpoint* resume = nullptr);

  [[nodiscard]] unsigned num_threads() const noexcept { return pool_.threads(); }
  [[nodiscard]] const std::vector<ArenaProbe>& probes() const noexcept {
    return probes_;
  }

  /// Vectors one executor pass settles: the program's word_bits when the
  /// program is lane-independent and every probe samples bit 0, else 1.
  [[nodiscard]] unsigned lanes() const noexcept { return lanes_; }

  /// Shards a run of `num_vectors` would be split into: one per thread,
  /// but never below `min_chunk` vectors each (a seam replay must stay
  /// amortized) and never more than the pass count. Shards hold whole
  /// passes, so with lanes() > 1 their boundaries are multiples of it.
  [[nodiscard]] std::size_t shard_count(std::size_t num_vectors) const noexcept;

 private:
  /// Mutable per-shard execution state (internal; becomes a ShardCheckpoint
  /// when a run stops early).
  struct ShardSlot {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t next = 0;             ///< first unexecuted vector
    std::vector<std::uint64_t> arena; ///< settled arena when mid-stream
    StopReason stop = StopReason::None;
    std::uint64_t retries = 0;
    bool quarantined = false;
  };

  template <class Word>
  void run_shard(std::span<const Bit> inputs, std::size_t shard_index,
                 ShardSlot& slot, std::span<Bit> out, unsigned attempt);
  void run_shard_any(std::span<const Bit> inputs, std::size_t shard_index,
                     ShardSlot& slot, std::span<Bit> out, unsigned attempt);
  /// Retry loop around run_shard; sets slot.quarantined instead of throwing.
  void run_shard_guarded(std::span<const Bit> inputs, std::size_t shard_index,
                         ShardSlot& slot, std::span<Bit> out);

  const Program& program_;
  std::vector<ArenaProbe> probes_;
  BatchOptions options_;
  unsigned lanes_ = 1;  ///< vectors per pass (see lanes())
  ThreadPool pool_;
  ExecCounters exec_;  ///< payload-pass counters (disengaged without metrics)
};

}  // namespace udsim
