// Block-transpose staging between row-major Bit streams and lane-packed
// words (DESIGN.md §5c).
//
// When the batch layer packs one vector per bit lane, the stream must be
// transposed on the way in (row k of the stream → bit k of each input word)
// and the probe words on the way out (bit k of each probe word → row k).
// Both directions work in 64 × 64 bit blocks: 8 stream bytes at a time are
// gathered into (or scattered from) 8 bits with a multiply/mask sequence,
// and the block is flipped with the recursive 64 × 64 transpose of Hacker's
// Delight §7-3.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/logic.h"

namespace udsim {

/// Stage-in. For k < `lanes` and c < `cols`, bit k % 64 of
/// words[c * stride + k / 64] becomes bit 0 of rows[k * row_stride + c]. All
/// other bits of the `stride` words of each column are zeroed, so a partial
/// pass leaves its unused lanes at 0. Requires lanes <= 64 * stride and
/// row_stride >= cols (row_stride > cols reads every n-th row of a stream
/// in place).
void pack_lanes(const Bit* rows, std::size_t row_stride, std::size_t cols,
                std::size_t lanes, std::uint64_t* words, std::size_t stride);

/// Stage-out, the mirror of pack_lanes: for k < `lanes` and c < `cols`,
/// out[k * row_stride + c] becomes bit k % 64 of words[c * stride + k / 64]
/// (0 or 1). Rows at or past `lanes`, and the bytes between rows, are not
/// written.
void unpack_lanes(const std::uint64_t* words, std::size_t stride,
                  std::size_t cols, std::size_t lanes, Bit* out,
                  std::size_t row_stride);

}  // namespace udsim
