#include "ir/verify.h"

#include <vector>

namespace udsim {

std::string verify_program(const Program& p, const VerifyOptions& opts) {
  const auto W = static_cast<unsigned>(p.word_bits);
  if (W != 32 && W != 64 && W != 128 && W != 256) {
    return "word_bits must be 32, 64, 128 or 256";
  }

  std::vector<bool> written(p.arena_words, false);
  for (const Program::InitWord& iw : p.arena_init) {
    if (iw.index >= p.arena_words) return "arena_init index out of bounds";
    written[iw.index] = true;
  }
  for (std::uint32_t persistent : opts.persistent) {
    if (persistent >= p.arena_words) return "persistent index out of bounds";
    written[persistent] = true;
  }
  const bool track_scratch = !opts.persistent.empty();

  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    const OpShape s = op_shape(op.code);
    const auto where = [&] { return " at op " + std::to_string(i); };
    if (op.dst >= p.arena_words) return "dst out of bounds" + where();
    if (s.loads_input) {
      if (op.a >= p.input_words) return "input index out of bounds" + where();
    } else if (s.reads_a_arena) {
      if (op.a >= p.arena_words) return "operand a out of bounds" + where();
      if (track_scratch && !written[op.a]) {
        return "read of unwritten scratch word (a)" + where();
      }
    }
    if (s.reads_b) {
      if (op.b >= p.arena_words) return "operand b out of bounds" + where();
      if (track_scratch && !written[op.b]) {
        return "read of unwritten scratch word (b)" + where();
      }
    }
    if (s.reads_dst && track_scratch && !written[op.dst]) {
      return "read-modify-write of unwritten scratch word" + where();
    }
    if (s.uses_imm_shift) {
      if (op.imm >= W) return "shift immediate out of range" + where();
      if (s.imm_nonzero && op.imm == 0) return "funnel shift of zero" + where();
    }
    written[op.dst] = true;
  }
  return {};
}

LaneClass lane_class(const Program& p) {
  std::vector<bool> written(p.arena_words, false);
  std::vector<bool> read_first(p.arena_words, false);
  const auto read = [&](std::uint32_t w) {
    if (w >= p.arena_words) return false;
    if (!written[w]) read_first[w] = true;
    return true;
  };
  for (const Op& op : p.ops) {
    const OpShape s = op_shape(op.code);
    if (!s.lane_wise || op.dst >= p.arena_words) return LaneClass::Scalar;
    if (s.reads_a_arena && !read(op.a)) return LaneClass::Scalar;
    if (s.reads_b && !read(op.b)) return LaneClass::Scalar;
    if (s.reads_dst && !read(op.dst)) return LaneClass::Scalar;
    written[op.dst] = true;
  }
  // A word read before the pass writes it carries the previous pass's value
  // (retained state) — unless no op ever writes it, in which case it holds
  // its init value on every pass, the same in every lane if uniform.
  std::vector<std::uint64_t> init(p.arena_words, 0);
  for (const Program::InitWord& iw : p.arena_init) {
    if (iw.index < p.arena_words) init[iw.index] = iw.value;
  }
  const std::uint64_t ones =
      p.word_bits == 32 ? std::uint64_t{0xffffffffu} : ~std::uint64_t{0};
  bool retains = false;
  for (std::uint32_t w = 0; w < p.arena_words; ++w) {
    if (!read_first[w]) continue;
    const std::uint64_t v = init[w] & ones;
    if (written[w]) {
      retains = true;
    } else if (v != 0 && v != ones) {
      return LaneClass::Scalar;
    }
  }
  return retains ? LaneClass::Stateful : LaneClass::Independent;
}

bool lanes_independent(const Program& p) {
  return lane_class(p) == LaneClass::Independent;
}

}  // namespace udsim
