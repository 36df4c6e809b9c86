#include "core/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <stdexcept>
#include <utility>

#include "core/lane_staging.h"
#include "core/simulator.h"
#include "core/thread_pool.h"
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

/// The program a Simulator-built runner executes, checked for batch use.
const Program& batch_program(const Simulator& sim) {
  const Program* p = sim.compiled_program();
  if (p == nullptr || p->input_words != sim.netlist().primary_inputs().size()) {
    throw std::logic_error("run_batch: no compiled program in scalar input mode");
  }
  return *p;
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

BatchRunner::BatchRunner(const Simulator& sim, BatchOptions options)
    : BatchRunner(batch_program(sim), sim.output_probes(), std::move(options),
                  sim.lane_class(), sim.pass_extras(), sim.native_module()) {}

BatchRunner::BatchRunner(const Program& program, std::vector<ArenaProbe> probes,
                         BatchOptions options)
    : BatchRunner(program, std::move(probes), std::move(options),
                  lane_class(program), {}, nullptr) {}

BatchRunner::BatchRunner(
    const Program& program, std::vector<ArenaProbe> probes, BatchOptions options,
    LaneClass program_lanes,
    const std::vector<std::pair<std::string, std::uint64_t>>& extras,
    const NativeModule* native)
    : program_(program),
      probes_(std::move(probes)),
      options_(std::move(options)),
      native_(native),
      threads_(options_.num_threads == 0 ? ThreadPool::hardware_threads()
                                         : options_.num_threads) {
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
  // A lane-packed program settles one vector per bit lane, as long as every
  // output is read from lane 0 of the scalar run.
  const bool probes_lane0 = std::all_of(
      probes_.begin(), probes_.end(), [](const ArenaProbe& p) { return p.bit == 0; });
  if (probes_lane0 && program_lanes != LaneClass::Scalar) {
    layout_ = program_lanes;
    lanes_ = static_cast<unsigned>(program_.word_bits);
  }
  exec_ = ExecCounters::attach(options_.metrics, program_, extras);
}

std::size_t BatchRunner::shard_count(std::size_t num_vectors) const noexcept {
  if (num_vectors == 0) return 0;
  const std::size_t passes = shard_passes(num_vectors);
  const std::size_t chunk = (options_.min_chunk + lanes_ - 1) / lanes_;
  const std::size_t by_threads = threads_;
  const std::size_t by_chunk = (passes + chunk - 1) / chunk;
  return std::max<std::size_t>(1, std::min(by_threads, by_chunk));
}

BatchRunner::PassRows BatchRunner::pass_rows(const ShardSlot& slot,
                                             std::size_t pass) const noexcept {
  const std::size_t n = slot.end - slot.begin;
  switch (layout_) {
    case LaneClass::Independent:
      return {slot.begin + pass * lanes_,
              std::min<std::size_t>(lanes_, n - pass * lanes_), 1};
    case LaneClass::Stateful: {
      // Lane k runs chunk k, vectors [kC, kC + C) of the shard; the lanes
      // whose chunk still has a vector at offset `pass` form a prefix.
      const std::size_t c = shard_passes(n);
      return {slot.begin + pass, (n - pass + c - 1) / c, c};
    }
    case LaneClass::Scalar:
      break;
  }
  return {slot.begin + pass, 1, 1};
}

template <class F>
void BatchRunner::for_each_settled(const ShardSlot& slot, std::size_t passes,
                                   F&& f) const {
  const std::size_t n = slot.end - slot.begin;
  // Stateful lanes settle a prefix of every chunk, the others a prefix of
  // the shard.
  const std::size_t chunk = layout_ == LaneClass::Stateful ? shard_passes(n) : n;
  const std::size_t prefix =
      layout_ == LaneClass::Stateful ? passes : std::min(n, passes * lanes_);
  for (std::size_t first = 0; first < n; first += chunk) {
    const std::size_t len = std::min(prefix, n - first);
    for (std::size_t q = 0; q < len; ++q) f(slot.begin + first + q);
  }
}

template <class Word>
void BatchRunner::run_shard(std::span<const Bit> inputs, std::size_t shard_index,
                            ShardSlot& slot, std::span<Bit> out,
                            unsigned attempt) {
  const std::size_t total = shard_passes(slot.end - slot.begin);
  if (slot.passes >= total) return;  // resumed already-finished shard
  const std::size_t iw = program_.input_words;
  MetricsRegistry* const reg = options_.metrics;
  FaultInjector* const inj = options_.inject;
  const std::uint64_t t0 = reg ? shard_now_ns() : 0;
  const std::size_t start = slot.passes;
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

  if (inj && inj->fire(FaultSite::AllocFail, shard_index, slot.next, attempt)) {
    metric_add(reg, "resil.injected", 1);
    throw std::bad_alloc();
  }
  KernelRunner<Word> runner(program_);
  // Probes were validated at construction: outputs read the arena directly.
  Word* const arena = runner.mutable_arena().data();
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
  // Lane k of the input words <- bit 0 of rows[k * row_stride ...], k < lanes.
  const auto load_lanes = [&](const Bit* rows, std::size_t row_stride,
                              std::size_t lanes) {
    pack_lanes(rows, row_stride, iw, lanes, staged.data(), kL);
    for (std::size_t i = 0; i < iw; ++i) {
      row[i] = word_from_u64_lanes<Word>(&staged[i * kL]);
    }
  };
  // One kernel pass over `row`: the engine's native module (same program,
  // same arena) when it has one, else the IR executor.
  const auto step = [&] {
    if (native_ != nullptr) {
      native_->step(arena, row.data());
    } else {
      runner.run(row);
    }
  };
  // One payload pass settling the vectors of `pr`.
  const auto pass = [&](const PassRows& pr) {
    Bit* dst = out.data() + pr.first * cols;
    if (!packed) {
      load(pr.first);
      step();
      for (std::size_t j = 0; j < cols; ++j) {
        dst[j] = static_cast<Bit>(word_bit(arena[probes_[j].word], probes_[j].bit));
      }
      return;
    }
    load_lanes(inputs.data() + pr.first * iw, pr.step * iw, pr.lanes);
    step();
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t l = 0; l < kL; ++l) {
        staged[j * kL + l] = word_u64_lane(arena[probes_[j].word], l);
      }
    }
    unpack_lanes(staged.data(), kL, cols, pr.lanes, dst, pr.step * cols);
  };
  // Predecessor vectors the seam pass replayed (outputs discarded).
  std::size_t seam_vectors = 0;
  if (start > 0) {
    // Resume: the checkpointed arena IS the retained state after pass
    // start-1; restoring it replaces the seam replay. Independent lanes
    // retain nothing.
    if (layout_ != LaneClass::Independent) runner.load_arena(slot.arena);
  } else if (layout_ == LaneClass::Stateful) {
    // Seam pass: lane k replays the vector before its chunk, begin + kC - 1,
    // which re-establishes the retained state that chunk starts from.
    const PassRows first = pass_rows(slot, 0);
    const bool head = slot.begin == 0;  // lane 0 starts from the reset arena
    if (first.lanes > 1 || !head) {
      std::vector<Bit> seam_rows(first.lanes * iw, 0);
      for (std::size_t k = head ? 1 : 0; k < first.lanes; ++k) {
        const Bit* src = inputs.data() + (first.first + k * first.step - 1) * iw;
        std::copy(src, src + iw, seam_rows.begin() + static_cast<std::ptrdiff_t>(k * iw));
      }
      std::vector<Word> reset;
      if (head) reset.assign(arena, arena + program_.arena_words);
      load_lanes(seam_rows.data(), iw, first.lanes);
      step();
      if (head) {
        // Lane-0 reset blend: lane 0 has no predecessor, so its bits return
        // to the initial arena while lanes 1.. keep their seam state.
        const Word lane0 = static_cast<Word>(std::uint64_t{1});
        for (std::size_t w = 0; w < program_.arena_words; ++w) {
          arena[w] = static_cast<Word>((arena[w] & static_cast<Word>(~lane0)) |
                                       (reset[w] & lane0));
        }
      }
      seam_vectors = first.lanes - (head ? 1 : 0);
    }
  } else if (layout_ == LaneClass::Scalar && slot.begin > 0) {
    // Seam replay: the predecessor shard's final vector re-establishes the
    // retained state (previous-vector settled values); outputs discarded.
    load(slot.begin - 1);
    step();
    seam_vectors = 1;
  }

  CancelPoll poll(options_.cancel);
  std::size_t p = start;
  std::uint64_t vectors = 0;  // settled by this attempt's payload passes
  StopReason stop = StopReason::None;
  // Shared exit accounting so the fault-throwing paths count their executed
  // passes exactly like the clean path does.
  const auto account = [&] {
    if (!reg) return;
    // Payload counters: thread-count invariant.
    const std::uint64_t passes = p - start;
    exec_.on_passes(passes, vectors);
    reg->counter("batch.passes").add(passes);
    if (seam_vectors != 0) {
      reg->counter("batch.seam_vectors").add(seam_vectors);
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
  // pass that settles its vector.
  while (p < total) {
    const PassRows pr = pass_rows(slot, p);
    stop = poll.poll();  // one relaxed load + branch (dead branch when null)
    if (inj != nullptr) {
      const auto fire = [&](FaultSite site) {
        return inj->fire(site, shard_index, pr.first, attempt, pr.lanes, pr.step);
      };
      if (stop == StopReason::None && fire(FaultSite::DeadlineOverrun)) {
        metric_add(reg, "resil.injected", 1);
        stop = StopReason::Deadline;
      }
      if (fire(FaultSite::WorkerThrow)) {
        metric_add(reg, "resil.injected", 1);
        account();
        throw InjectedFault(FaultSite::WorkerThrow, shard_index, pr.first, attempt);
      }
      if (fire(FaultSite::ArenaCorrupt)) {
        metric_add(reg, "resil.injected", 1);
        if (program_.arena_words != 0) {
          arena[pr.first % program_.arena_words] ^=
              static_cast<Word>(0xdeadbeefdeadbeefull);
        }
        account();
        // The corruption is trapped immediately (standing in for a detected
        // memory fault); the retry restarts from a fresh seam-replayed
        // arena, so the shard's final outputs stay bit-identical.
        throw InjectedFault(FaultSite::ArenaCorrupt, shard_index, pr.first, attempt);
      }
    }
    if (stop != StopReason::None) break;
    pass(pr);
    vectors += pr.lanes;
    ++p;
  }

  slot.next += vectors;
  slot.passes = p;
  slot.stop = stop;
  if (stop != StopReason::None && p > 0 && layout_ != LaneClass::Independent) {
    // The one piece of cross-vector state, every lane of it.
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
    reg->counter("batch.threads").set(threads_);
    reg->counter("batch.lanes").set(lanes_);
  }

  // Whole passes per shard, spread as evenly as they divide.
  const std::size_t passes = shard_passes(num_vectors);
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
    if (resume->lanes != lanes_) {
      geometry("taken at " + std::to_string(resume->lanes) + " lanes, not " +
               std::to_string(lanes_));
    }
    if (resume->num_vectors != num_vectors) geometry("vector count differs");
    if (resume->shards.size() != shards) {
      geometry("shard count differs (thread count or min_chunk changed)");
    }
    const std::size_t cols = probes_.size();
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardCheckpoint& sc = resume->shards[s];
      ShardSlot& slot = slots[s];
      if (sc.begin != slot.begin || sc.end != slot.end) {
        geometry("shard " + std::to_string(s) + " boundaries differ");
      }
      const auto corrupt = [&](const std::string& what) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "checkpoint shard " + std::to_string(s) + " " + what);
      };
      const std::size_t total = shard_passes(slot.end - slot.begin);
      std::size_t settled = 0;
      if (sc.passes <= total) {
        for_each_settled(slot, sc.passes, [&](std::size_t) { ++settled; });
      }
      if (sc.passes > total || sc.next - sc.begin != settled ||
          sc.rows.size() != settled * cols) {
        corrupt("progress does not match " + std::to_string(sc.passes) + " " +
                std::to_string(lanes_) + "-lane passes");
      }
      const bool mid_stream = sc.passes > 0 && sc.passes < total;
      if (mid_stream && layout_ != LaneClass::Independent &&
          sc.arena.size() != carrier_words(program_)) {
        corrupt("is mid-stream but carries no arena");
      }
      slot.next = sc.next;
      slot.passes = sc.passes;
      slot.arena = sc.arena;
      const Bit* row = sc.rows.data();
      for_each_settled(slot, sc.passes, [&](std::size_t v) {
        std::copy(row, row + cols,
                  result.values.begin() + static_cast<std::ptrdiff_t>(v * cols));
        row += cols;
      });
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
  // A shard body never starts another batch (see ThreadPool::shared).
  const auto shard = [&](std::size_t s) {
    run_shard_guarded(inputs, s, slots[s], result.values);
  };
  if (shards == 1) {
    shard(0);  // inline on the caller; never touches the pool
  } else {
    ThreadPool::shared().parallel_for(shards, shard);
  }

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

  std::size_t passes_done = 0;
  for (const ShardSlot& slot : slots) {
    result.retries += slot.retries;
    result.quarantined += slot.quarantined ? 1 : 0;
    result.vectors_done += slot.next - slot.begin;
    passes_done += slot.passes;
  }

  StopReason reason = StopReason::None;
  for (const ShardSlot& slot : slots) {
    if (slot.stop == StopReason::Cancelled) reason = StopReason::Cancelled;
    if (slot.stop == StopReason::Deadline && reason == StopReason::None) {
      reason = StopReason::Deadline;
    }
  }
  if (reason == StopReason::None) {
    // Always-on invariant: a completed run settled every vector in exactly
    // the planned payload passes, whatever the threads, retries or resume.
    if (passes_done != passes || result.vectors_done != num_vectors) {
      throw std::logic_error(
          "BatchRunner: completed run settled " +
          std::to_string(result.vectors_done) + "/" + std::to_string(num_vectors) +
          " vectors in " + std::to_string(passes_done) + "/" +
          std::to_string(passes) + " passes");
    }
    result.status = RunStatus::Complete;
    return result;
  }

  result.status = reason == StopReason::Cancelled ? RunStatus::Cancelled
                                                  : RunStatus::DeadlineExpired;
  metric_add(reg, reason == StopReason::Cancelled ? "resil.cancelled"
                                                  : "resil.deadline",
             1);
  // Assemble the resumable snapshot: per shard, the passes run, the settled
  // arena (mid-stream shards with retained state only) and the completed
  // output rows.
  BatchCheckpoint& ck = result.checkpoint;
  ck.word_bits = static_cast<std::uint32_t>(program_.word_bits);
  ck.arena_words = program_.arena_words;
  ck.input_words = program_.input_words;
  ck.probe_count = static_cast<std::uint32_t>(probes_.size());
  ck.lanes = lanes_;
  ck.num_vectors = num_vectors;
  ck.shards.reserve(shards);
  const std::size_t cols = probes_.size();
  for (ShardSlot& slot : slots) {
    ShardCheckpoint sc;
    sc.begin = slot.begin;
    sc.end = slot.end;
    sc.next = slot.next;
    sc.passes = slot.passes;
    sc.arena = std::move(slot.arena);
    sc.rows.reserve((slot.next - slot.begin) * cols);
    for_each_settled(slot, slot.passes, [&](std::size_t v) {
      const auto row = result.values.begin() + static_cast<std::ptrdiff_t>(v * cols);
      sc.rows.insert(sc.rows.end(), row, row + static_cast<std::ptrdiff_t>(cols));
    });
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
