// Structural verifier for generated programs: bounds, immediate ranges, and
// scratch-read-before-write. Run by the compiler test suites over every
// generated program; catches code-generator bugs at the IR level instead of
// as silent wrong simulation results.
//
// Also home of the per-opcode operand table the verifier, the production
// validator (resilience/program_validator.h) and the lane-independence scan
// share.
#pragma once

#include <span>
#include <string>

#include "ir/program.h"

namespace udsim {

/// Operand shape of one opcode.
struct OpShape {
  bool reads_a_arena;   ///< a is an arena index (vs an input index)
  bool reads_b;
  bool reads_dst;       ///< dst is read-modify-write
  bool uses_imm_shift;  ///< imm must be a shift amount
  bool imm_nonzero;     ///< funnel shifts exclude 0
  bool loads_input;     ///< a is an input-word index
  bool lane_wise;       ///< bit k of dst depends only on bit k of the operands
};

[[nodiscard]] constexpr OpShape op_shape(OpCode c) noexcept {
  switch (c) {
    case OpCode::Const:
      return {false, false, false, false, false, false, true};
    case OpCode::Copy:
    case OpCode::Not:
      return {true, false, false, false, false, false, true};
    case OpCode::And:
    case OpCode::Or:
    case OpCode::Xor:
    case OpCode::Nand:
    case OpCode::Nor:
    case OpCode::Xnor:
      return {true, true, false, false, false, false, true};
    case OpCode::AccAnd:
    case OpCode::AccOr:
    case OpCode::AccXor:
      return {true, false, true, false, false, false, true};
    case OpCode::MaskedCopy:
      return {true, true, true, false, false, false, true};
    case OpCode::LoadWord:
      return {false, false, false, false, false, true, true};
    case OpCode::LoadBit:
    case OpCode::LoadBcast:
      return {false, false, false, false, false, true, false};
    case OpCode::ExtractBit:
    case OpCode::BcastBit:
    case OpCode::Shl:
    case OpCode::Shr:
      return {true, false, false, true, false, false, false};
    case OpCode::ShlOr:
    case OpCode::MaskShlOr:
      return {true, false, true, true, false, false, false};
    case OpCode::FunnelL:
    case OpCode::FunnelR:
      return {true, true, false, true, true, false, false};
  }
  return {};
}

struct VerifyOptions {
  /// Arena words that are legitimately live across vectors (net variables /
  /// bit-fields / arena-init constants). Words outside this set are scratch:
  /// reading one before this program writes it is an error.
  std::span<const std::uint32_t> persistent;
};

/// Returns an empty string when the program is well-formed, otherwise a
/// description of the first problem found.
[[nodiscard]] std::string verify_program(const Program& p, const VerifyOptions& opts = {});

/// True when every bit lane of the program computes independently of the
/// others and of earlier passes, so one pass can settle word_bits unrelated
/// input vectors, one per lane. Holds when every op is lane-wise (no shift,
/// funnel, bit extract/broadcast or single-bit load) and no arena word is
/// read in a pass before that pass writes it — except words no op ever
/// writes whose init value is all-zeros or all-ones (the same constant in
/// every lane). One scan of the op vector.
[[nodiscard]] bool lanes_independent(const Program& p);

}  // namespace udsim
