#include "resilience/program_validator.h"

#include <vector>

#include "ir/verify.h"

namespace udsim {

namespace {

constexpr std::size_t kMaxDefectRecords = 16;

class Report {
 public:
  explicit Report(Diagnostics& diag) : diag_(diag) {}

  void defect(DiagCode code, std::string subject, std::string message) {
    ++errors_;
    if (errors_ <= kMaxDefectRecords) {
      diag_.report(code, DiagSeverity::Error, std::move(subject),
                   std::move(message));
    }
  }
  void warn(DiagCode code, std::string subject, std::string message) {
    diag_.report(code, DiagSeverity::Warning, std::move(subject),
                 std::move(message));
  }

  [[nodiscard]] std::size_t errors() const noexcept { return errors_; }

 private:
  Diagnostics& diag_;
  std::size_t errors_ = 0;
};

std::string at_op(std::size_t i) { return "op " + std::to_string(i); }

}  // namespace

bool validate_program(const Program& p, const ValidateOptions& opts,
                      Diagnostics& diag) {
  Report rep(diag);
  const auto W = static_cast<unsigned>(p.word_bits);
  if (W != 32 && W != 64 && W != 128 && W != 256) {
    rep.defect(DiagCode::ProgramWordSize, "program",
               "word_bits is " + std::to_string(p.word_bits) +
                   "; the executors support 32, 64, 128 and 256");
    // Everything below still runs: bounds are word-size independent, and a
    // corrupted header should not mask a corrupted body.
  }

  // The known-opcode range: a corrupted `code` byte indexes the threaded
  // dispatch table out of bounds, so it must be rejected up front.
  constexpr auto kLastOp = static_cast<std::uint8_t>(OpCode::FunnelR);

  std::vector<bool> written(p.arena_words, false);
  for (std::size_t i = 0; i < p.arena_init.size(); ++i) {
    const Program::InitWord& iw = p.arena_init[i];
    if (iw.index >= p.arena_words) {
      rep.defect(DiagCode::ProgramInitBounds, "arena_init[" + std::to_string(i) + "]",
                 "init index " + std::to_string(iw.index) +
                     " outside the arena (" + std::to_string(p.arena_words) +
                     " words)");
      continue;
    }
    written[iw.index] = true;
  }
  for (const std::uint32_t persistent : opts.persistent) {
    if (persistent < p.arena_words) written[persistent] = true;
  }
  const bool track_scratch = !opts.persistent.empty();

  std::vector<bool> input_loaded(p.input_words, false);
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    if (static_cast<std::uint8_t>(op.code) > kLastOp) {
      rep.defect(DiagCode::ProgramOpBounds, at_op(i),
                 "unknown opcode " +
                     std::to_string(static_cast<unsigned>(op.code)));
      continue;  // the shape of an unknown op is meaningless
    }
    const OpShape s = op_shape(op.code);
    if (op.dst >= p.arena_words) {
      rep.defect(DiagCode::ProgramOpBounds, at_op(i),
                 "dst word " + std::to_string(op.dst) + " outside the arena (" +
                     std::to_string(p.arena_words) + " words)");
    }
    if (s.loads_input) {
      if (op.a >= p.input_words) {
        rep.defect(DiagCode::ProgramInputBounds, at_op(i),
                   "input word " + std::to_string(op.a) +
                       " outside the input span (" +
                       std::to_string(p.input_words) + " words)");
      } else {
        input_loaded[op.a] = true;
      }
    } else if (s.reads_a_arena) {
      if (op.a >= p.arena_words) {
        rep.defect(DiagCode::ProgramOpBounds, at_op(i),
                   "operand a word " + std::to_string(op.a) +
                       " outside the arena");
      } else if (track_scratch && !written[op.a]) {
        rep.defect(DiagCode::ProgramScratchRead, at_op(i),
                   "reads scratch word " + std::to_string(op.a) +
                       " before any write");
      }
    }
    if (s.reads_b) {
      if (op.b >= p.arena_words) {
        rep.defect(DiagCode::ProgramOpBounds, at_op(i),
                   "operand b word " + std::to_string(op.b) +
                       " outside the arena");
      } else if (track_scratch && !written[op.b]) {
        rep.defect(DiagCode::ProgramScratchRead, at_op(i),
                   "reads scratch word " + std::to_string(op.b) +
                       " before any write");
      }
    }
    if (s.reads_dst && op.dst < p.arena_words && track_scratch &&
        !written[op.dst]) {
      rep.defect(DiagCode::ProgramScratchRead, at_op(i),
                 "read-modify-write of unwritten scratch word " +
                     std::to_string(op.dst));
    }
    if (s.uses_imm_shift) {
      if (W != 0 && op.imm >= W) {
        rep.defect(DiagCode::ProgramShiftRange, at_op(i),
                   "shift immediate " + std::to_string(op.imm) +
                       " out of range for " + std::to_string(W) + "-bit words");
      }
      if (s.imm_nonzero && op.imm == 0) {
        rep.defect(DiagCode::ProgramShiftRange, at_op(i),
                   "funnel shift immediate must be non-zero");
      }
    }
    if (op.dst < p.arena_words) written[op.dst] = true;
  }

  for (std::size_t i = 0; i < opts.probes.size(); ++i) {
    const ArenaProbe& pr = opts.probes[i];
    if (pr.word >= p.arena_words || pr.bit >= W) {
      rep.defect(DiagCode::ProgramProbeBounds, "probe " + std::to_string(i),
                 "samples word " + std::to_string(pr.word) + " bit " +
                     std::to_string(static_cast<unsigned>(pr.bit)) +
                     ", outside a " + std::to_string(p.arena_words) +
                     "-word, " + std::to_string(W) + "-bit arena");
    }
  }

  if (opts.check_input_coverage && rep.errors() == 0) {
    std::size_t unused = 0;
    for (std::size_t i = 0; i < input_loaded.size(); ++i) {
      if (!input_loaded[i]) ++unused;
    }
    if (unused > 0) {
      rep.warn(DiagCode::ProgramInputUnused, "program",
               std::to_string(unused) + " of " + std::to_string(p.input_words) +
                   " input words are never loaded");
    }
  }

  if (rep.errors() == 0) {
    diag.report(DiagCode::ProgramAccepted, DiagSeverity::Note, "program",
                std::to_string(p.ops.size()) + " ops over " +
                    std::to_string(p.arena_words) + " arena words accepted");
    return true;
  }
  return false;
}

std::string validate_program_brief(const Program& p, const ValidateOptions& opts) {
  Diagnostics diag;
  if (validate_program(p, opts, diag)) return {};
  for (const Diagnostic& d : diag.records()) {
    if (d.severity == DiagSeverity::Error) return d.to_string();
  }
  return "program rejected";
}

ProgramRejected::ProgramRejected(std::string first_defect)
    : std::runtime_error("program failed validation: " + std::move(first_defect)) {}

}  // namespace udsim
