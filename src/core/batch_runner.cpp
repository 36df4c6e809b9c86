#include "core/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <stdexcept>
#include <utility>

#include "core/lane_staging.h"
#include "core/width_dispatch.h"
#include "ir/verify.h"
#include "netlist/diagnostics.h"
#include "obs/request_trace.h"

namespace udsim {

namespace {

/// uint64 carrier entries one checkpointed arena occupies (wide words carry
/// word_bits/64 lanes each; see KernelRunner::save_arena).
[[nodiscard]] std::size_t carrier_words(const Program& p) noexcept {
  const std::size_t lanes =
      p.word_bits > 64 ? static_cast<std::size_t>(p.word_bits) / 64 : 1;
  return p.arena_words * lanes;
}

[[nodiscard]] std::uint64_t shard_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view run_status_name(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::Complete:
      return "complete";
    case RunStatus::Cancelled:
      return "cancelled";
    case RunStatus::DeadlineExpired:
      return "deadline-expired";
  }
  return "?";
}

BatchRunner::BatchRunner(const Program& program, std::vector<ArenaProbe> probes,
                         BatchOptions options)
    : program_(program),
      probes_(std::move(probes)),
      options_(std::move(options)),
      pool_(options_.num_threads) {
  if (!width_available(program_.word_bits)) {
    const std::string msg = "BatchRunner: program word size " +
                            std::to_string(program_.word_bits) +
                            " is not executable on this build/CPU";
    if (options_.diag) {
      options_.diag->report(DiagCode::ProgramWordSize, DiagSeverity::Error,
                            "BatchRunner", msg);
    }
    throw std::invalid_argument(msg);
  }
  for (const ArenaProbe& p : probes_) {
    if (p.word >= program_.arena_words ||
        static_cast<int>(p.bit) >= program_.word_bits) {
      throw std::invalid_argument("BatchRunner: probe outside the arena");
    }
  }
  if (options_.min_chunk == 0) options_.min_chunk = 1;
  // Lanes as shards: a lane-independent program settles one vector per bit
  // lane, as long as every output is read from lane 0 of the scalar run.
  const bool probes_lane0 = std::all_of(
      probes_.begin(), probes_.end(), [](const ArenaProbe& p) { return p.bit == 0; });
  if (probes_lane0 && lanes_independent(program_)) {
    lanes_ = static_cast<unsigned>(program_.word_bits);
  }
  exec_ = ExecCounters::attach(options_.metrics, program_, options_.extra_pass_cost);
}

std::size_t BatchRunner::shard_count(std::size_t num_vectors) const noexcept {
  if (num_vectors == 0) return 0;
  const std::size_t passes = (num_vectors + lanes_ - 1) / lanes_;
  const std::size_t chunk = (options_.min_chunk + lanes_ - 1) / lanes_;
  const std::size_t by_threads = pool_.threads();
  const std::size_t by_chunk = (passes + chunk - 1) / chunk;
  return std::max<std::size_t>(1, std::min(by_threads, by_chunk));
}

template <class Word>
void BatchRunner::run_shard(std::span<const Bit> inputs, std::size_t shard_index,
                            ShardSlot& slot, std::span<Bit> out,
                            unsigned attempt) {
  if (slot.next >= slot.end) return;  // resumed already-finished shard
  const std::size_t iw = program_.input_words;
  MetricsRegistry* const reg = options_.metrics;
  FaultInjector* const inj = options_.inject;
  const std::uint64_t t0 = reg ? shard_now_ns() : 0;
  const std::size_t start = slot.next;
  // Pool threads re-enter the request's trace scope from the explicitly
  // threaded id, so the shard's span — opened next — tags itself with the
  // "request" arg like the submitter-thread spans do.
  RequestTraceScope trace_scope(options_.trace_id);
  // The span owns the batch.shard.ns / batch.shard.calls counters and the
  // trace event; it closes after account() runs, covering the whole shard.
  TraceSpan span(reg, "batch.shard");
  span.arg("shard", shard_index);
  span.arg("begin", slot.begin);
  span.arg("end", slot.end);
  span.arg("attempt", attempt);

  if (inj && inj->fire(FaultSite::AllocFail, shard_index, start, attempt)) {
    metric_add(reg, "resil.injected", 1);
    throw std::bad_alloc();
  }
  KernelRunner<Word> runner(program_);
  std::vector<Word> row(iw);
  const std::size_t cols = probes_.size();
  const bool packed = lanes_ > 1;
  // Packed passes stage through uint64 carrier lanes, kL per word.
  constexpr std::size_t kL = kWordU64Lanes<Word>;
  std::vector<std::uint64_t> staged(packed ? std::max(iw, cols) * kL : 0);
  const auto load = [&](std::size_t v) {
    const Bit* src = inputs.data() + v * iw;
    for (std::size_t i = 0; i < iw; ++i) {
      row[i] = static_cast<Word>(std::uint64_t{src[i] & 1u});
    }
  };
  // One executor pass settling vectors [v, v + n): n == 1 unless packed.
  const auto pass = [&](std::size_t v, std::size_t n) {
    Bit* dst = out.data() + v * cols;
    if (!packed) {
      load(v);
      runner.run(row);
      for (std::size_t j = 0; j < cols; ++j) {
        dst[j] = runner.bit(probes_[j].word, probes_[j].bit);
      }
      return;
    }
    pack_lanes(inputs.data() + v * iw, iw, n, staged.data(), kL);
    for (std::size_t i = 0; i < iw; ++i) {
      row[i] = word_from_u64_lanes<Word>(&staged[i * kL]);
    }
    runner.run(row);
    const std::span<const Word> arena = runner.arena();
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t l = 0; l < kL; ++l) {
        staged[j * kL + l] = word_u64_lane(arena[probes_[j].word], l);
      }
    }
    unpack_lanes(staged.data(), kL, cols, n, dst);
  };
  bool seam = false;
  if (start > slot.begin) {
    // Resume: the checkpointed arena IS the retained state after vector
    // start-1; restoring it replaces the seam replay. Packed passes retain
    // nothing.
    if (!packed) runner.load_arena(slot.arena);
  } else if (slot.begin > 0 && !packed) {
    // Seam replay: the predecessor shard's final vector re-establishes the
    // retained state (previous-vector settled values); outputs discarded.
    load(slot.begin - 1);
    runner.run(row);
    seam = true;
  }

  CancelPoll poll(options_.cancel);
  std::size_t v = start;
  std::uint64_t passes = 0;
  StopReason stop = StopReason::None;
  // Shared exit accounting so the fault-throwing paths count their executed
  // passes exactly like the clean path does.
  const auto account = [&] {
    if (!reg) return;
    // Payload counters: thread-count invariant.
    exec_.on_passes(passes, v - start);
    reg->counter("batch.passes").add(passes);
    if (seam) {
      reg->counter("batch.seam_vectors").add(1);
      reg->counter("batch.seam_ops").add(exec_.cost.ops);
    }
    const std::uint64_t elapsed = shard_now_ns() - t0;
    reg->counter("batch.shards").add(1);
    reg->counter("batch.shard_max.ns").set_max(elapsed);
    reg->counter("batch.shard_vectors_max").set_max(slot.end - slot.begin);
    // Wall-time distributions (DESIGN.md §5g): per-shard latency and the
    // amortized per-pass latency, from the two clock reads already taken.
    reg->histogram("batch.shard.us").record(elapsed / 1000);
    if (passes != 0) reg->histogram("batch.pass.ns").record(elapsed / passes);
  };

  // Polls and fault sites apply once per pass; a planted site fires on the
  // pass whose vectors [v, v + n) cover it.
  while (v < slot.end) {
    const std::size_t n = std::min<std::size_t>(lanes_, slot.end - v);
    stop = poll.poll();  // one relaxed load + branch (dead branch when null)
    if (inj != nullptr) {
      if (stop == StopReason::None &&
          inj->fire(FaultSite::DeadlineOverrun, shard_index, v, attempt, n)) {
        metric_add(reg, "resil.injected", 1);
        stop = StopReason::Deadline;
      }
      if (inj->fire(FaultSite::WorkerThrow, shard_index, v, attempt, n)) {
        metric_add(reg, "resil.injected", 1);
        account();
        throw InjectedFault(FaultSite::WorkerThrow, shard_index, v, attempt);
      }
      if (inj->fire(FaultSite::ArenaCorrupt, shard_index, v, attempt, n)) {
        metric_add(reg, "resil.injected", 1);
        const std::span<Word> arena = runner.mutable_arena();
        if (!arena.empty()) {
          arena[v % arena.size()] ^= static_cast<Word>(0xdeadbeefdeadbeefull);
        }
        account();
        // The corruption is trapped immediately (standing in for a detected
        // memory fault); the retry restarts from a fresh seam-replayed
        // arena, so the shard's final outputs stay bit-identical.
        throw InjectedFault(FaultSite::ArenaCorrupt, shard_index, v, attempt);
      }
    }
    if (stop != StopReason::None) break;
    pass(v, n);
    v += n;
    ++passes;
  }

  slot.next = v;
  slot.stop = stop;
  if (stop != StopReason::None && v > slot.begin && !packed) {
    // The one piece of cross-vector state; packed passes retain none.
    runner.save_arena(slot.arena);
  } else {
    slot.arena.clear();
  }
  account();
}

void BatchRunner::run_shard_any(std::span<const Bit> inputs,
                                std::size_t shard_index, ShardSlot& slot,
                                std::span<Bit> out, unsigned attempt) {
  switch (program_.word_bits) {
    case 64:
      run_shard<std::uint64_t>(inputs, shard_index, slot, out, attempt);
      break;
#if UDSIM_HAS_W128
    case 128:
      run_shard<u128>(inputs, shard_index, slot, out, attempt);
      break;
#endif
    case 256:
      run_shard<u256>(inputs, shard_index, slot, out, attempt);
      break;
    default:
      run_shard<std::uint32_t>(inputs, shard_index, slot, out, attempt);
      break;
  }
}

void BatchRunner::run_shard_guarded(std::span<const Bit> inputs,
                                    std::size_t shard_index, ShardSlot& slot,
                                    std::span<Bit> out) {
  MetricsRegistry* const reg = options_.metrics;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      run_shard_any(inputs, shard_index, slot, out, attempt);
      return;
    } catch (const std::exception& e) {
      // A failed attempt left `slot` untouched (the shard restarts from its
      // seam / resume point), so a retry is a clean deterministic re-run.
      if (attempt >= options_.retry_limit) {
        slot.quarantined = true;
        metric_add(reg, "resil.quarantined", 1);
        if (options_.diag) {
          options_.diag->report(
              DiagCode::ShardQuarantined, DiagSeverity::Warning,
              "shard " + std::to_string(shard_index),
              "retries exhausted after " + std::to_string(attempt + 1) +
                  " attempts (" + e.what() + "); degrading to sequential replay");
        }
        return;
      }
      ++slot.retries;
      metric_add(reg, "resil.retries", 1);
      if (options_.diag) {
        options_.diag->report(DiagCode::ShardRetry, DiagSeverity::Warning,
                              "shard " + std::to_string(shard_index),
                              std::string("attempt ") + std::to_string(attempt) +
                                  " failed (" + e.what() + "); retrying");
      }
    }
  }
}

std::vector<Bit> BatchRunner::run(std::span<const Bit> inputs,
                                  std::size_t num_vectors) {
  ResilientBatch r = run_resilient(inputs, num_vectors, nullptr);
  if (r.status != RunStatus::Complete) {
    throw Cancelled(r.status == RunStatus::Cancelled ? StopReason::Cancelled
                                                     : StopReason::Deadline,
                    "batch.run", r.vectors_done);
  }
  return std::move(r.values);
}

ResilientBatch BatchRunner::run_resilient(std::span<const Bit> inputs,
                                          std::size_t num_vectors,
                                          const BatchCheckpoint* resume) {
  const std::size_t iw = program_.input_words;
  if (inputs.size() < num_vectors * iw) {
    throw std::invalid_argument("BatchRunner::run: input stream too short");
  }
  ResilientBatch result;
  result.values.resize(num_vectors * probes_.size());
  const std::size_t shards = shard_count(num_vectors);
  if (shards == 0) return result;  // zero vectors: no replay, no dispatch

  MetricsRegistry* const reg = options_.metrics;
  TraceSpan span(reg, "batch.run");
  if (reg) {
    reg->counter("batch.runs").add(1);
    reg->counter("batch.threads").set(pool_.threads());
    reg->counter("batch.lanes").set(lanes_);
  }

  // Whole passes per shard, spread as evenly as they divide.
  const std::size_t passes = (num_vectors + lanes_ - 1) / lanes_;
  const std::size_t quot = passes / shards;
  const std::size_t rem = passes % shards;
  std::vector<ShardSlot> slots(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t first = s * quot + std::min(s, rem);
    const std::size_t last = first + quot + (s < rem ? 1 : 0);
    slots[s].begin = first * lanes_;
    slots[s].end = std::min(num_vectors, last * lanes_);
    slots[s].next = slots[s].begin;
  }

  if (resume != nullptr) {
    const auto geometry = [&](const std::string& what) {
      throw CheckpointError(CheckpointError::Kind::Geometry,
                            "checkpoint does not match this run: " + what);
    };
    if (resume->word_bits != static_cast<std::uint32_t>(program_.word_bits) ||
        resume->arena_words != program_.arena_words ||
        resume->input_words != program_.input_words) {
      geometry("program shape differs");
    }
    if (resume->probe_count != probes_.size()) geometry("probe count differs");
    if (resume->num_vectors != num_vectors) geometry("vector count differs");
    if (resume->shards.size() != shards) {
      geometry("shard count differs (thread count or min_chunk changed)");
    }
    const std::size_t cols = probes_.size();
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardCheckpoint& sc = resume->shards[s];
      if (sc.begin != slots[s].begin || sc.end != slots[s].end) {
        geometry("shard " + std::to_string(s) + " boundaries differ");
      }
      const bool mid_stream = sc.next > sc.begin && sc.next < sc.end;
      if (mid_stream && lanes_ == 1 && sc.arena.size() != carrier_words(program_)) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "checkpoint shard " + std::to_string(s) +
                                  " is mid-stream but carries no arena");
      }
      if (mid_stream && (sc.next - sc.begin) % lanes_ != 0) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "checkpoint shard " + std::to_string(s) +
                                  " stops inside a " + std::to_string(lanes_) +
                                  "-lane pass");
      }
      slots[s].next = sc.next;
      slots[s].arena = sc.arena;
      std::copy(sc.rows.begin(), sc.rows.end(),
                result.values.begin() +
                    static_cast<std::ptrdiff_t>(sc.begin * cols));
    }
    metric_add(reg, "resil.resumes", 1);
    if (options_.diag) {
      options_.diag->report(DiagCode::CheckpointResumed, DiagSeverity::Note,
                            "batch.run",
                            "resumed at " + std::to_string(resume->vectors_done()) +
                                "/" + std::to_string(num_vectors) + " vectors");
    }
  }

  // Workers write disjoint row ranges of the output matrix; order is fixed
  // by the shard boundaries, so the merge is free and deterministic. Shard
  // bodies never throw (run_shard_guarded converts failures into retries
  // and quarantine marks), so the pool barrier always completes cleanly.
  pool_.parallel_for(shards, [&](std::size_t s) {
    run_shard_guarded(inputs, s, slots[s], result.values);
  });

  // Graceful degradation: quarantined shards re-run sequentially on the
  // calling thread, one final attempt each. A failure here is a genuine,
  // unrecoverable error and propagates to the caller. Skipped when the run
  // is already stopping — the checkpoint keeps the shard's resume point.
  const bool stopping =
      std::any_of(slots.begin(), slots.end(), [](const ShardSlot& s) {
        return s.stop != StopReason::None;
      });
  for (std::size_t s = 0; s < shards; ++s) {
    if (!slots[s].quarantined || stopping) continue;
    run_shard_any(inputs, s, slots[s], result.values,
                  options_.retry_limit + 1);
  }

  for (const ShardSlot& slot : slots) {
    result.retries += slot.retries;
    result.quarantined += slot.quarantined ? 1 : 0;
    result.vectors_done += slot.next - slot.begin;
  }

  StopReason reason = StopReason::None;
  for (const ShardSlot& slot : slots) {
    if (slot.stop == StopReason::Cancelled) reason = StopReason::Cancelled;
    if (slot.stop == StopReason::Deadline && reason == StopReason::None) {
      reason = StopReason::Deadline;
    }
  }
  if (reason == StopReason::None) {
    result.status = RunStatus::Complete;
    return result;
  }

  result.status = reason == StopReason::Cancelled ? RunStatus::Cancelled
                                                  : RunStatus::DeadlineExpired;
  metric_add(reg, reason == StopReason::Cancelled ? "resil.cancelled"
                                                  : "resil.deadline",
             1);
  // Assemble the resumable snapshot: per shard, the resume point, the
  // settled arena (mid-stream one-vector-per-pass shards only) and the
  // completed output rows.
  BatchCheckpoint& ck = result.checkpoint;
  ck.word_bits = static_cast<std::uint32_t>(program_.word_bits);
  ck.arena_words = program_.arena_words;
  ck.input_words = program_.input_words;
  ck.probe_count = static_cast<std::uint32_t>(probes_.size());
  ck.num_vectors = num_vectors;
  ck.shards.reserve(shards);
  const std::size_t cols = probes_.size();
  for (ShardSlot& slot : slots) {
    ShardCheckpoint sc;
    sc.begin = slot.begin;
    sc.end = slot.end;
    sc.next = slot.next;
    sc.arena = std::move(slot.arena);
    sc.rows.assign(
        result.values.begin() + static_cast<std::ptrdiff_t>(slot.begin * cols),
        result.values.begin() + static_cast<std::ptrdiff_t>(slot.next * cols));
    ck.shards.push_back(std::move(sc));
  }
  metric_add(reg, "resil.checkpoints", 1);
  if (options_.diag) {
    options_.diag->report(
        DiagCode::RunCancelled, DiagSeverity::Note, "batch.run",
        std::string(stop_reason_name(reason)) + " after " +
            std::to_string(result.vectors_done) + "/" +
            std::to_string(num_vectors) + " vectors; checkpoint captured");
  }
  return result;
}

}  // namespace udsim
