#include "core/lane_staging.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace udsim {

namespace {

/// Bit 0 of each of eight bytes.
constexpr std::uint64_t kByteLsbs = 0x0101010101010101ull;

/// Bit 0 of each byte, byte i → bit i: the masked bytes times the
/// multiplier land every bit in the top byte with no carries.
std::uint64_t gather8(std::uint64_t x) noexcept {
  return ((x & kByteLsbs) * 0x0102040810204080ull) >> 56;
}

/// Bit i of `b` (< 256) → bit 0 of byte i: halve the span three times.
std::uint64_t scatter8(std::uint64_t b) noexcept {
  b = (b | (b << 28)) & 0x0000000f0000000full;
  b = (b | (b << 14)) & 0x0003000300030003ull;
  return (b | (b << 7)) & kByteLsbs;
}

/// `n` <= 8 stream bytes as a little-endian word (byte i → bits 8i..8i+7).
std::uint64_t load_bytes(const Bit* p, std::size_t n) noexcept {
  std::uint64_t x = 0;
  std::memcpy(&x, p, n);
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);
  }
  return x;
}

void store_bytes(Bit* p, std::uint64_t x, std::size_t n) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);
  }
  std::memcpy(p, &x, n);
}

/// In-place transpose of a 64 × 64 bit matrix, bit c of a[r] ↔ bit r of
/// a[c]: six rounds of block swaps, halving the block size each round
/// (Hacker's Delight §7-3).
void transpose64(std::uint64_t* a) noexcept {
  std::uint64_t m = 0x00000000ffffffffull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

void pack_lanes(const Bit* rows, std::size_t row_stride, std::size_t cols,
                std::size_t lanes, std::uint64_t* words, std::size_t stride) {
  alignas(64) std::uint64_t block[64];
  for (std::size_t c0 = 0; c0 < cols; c0 += 64) {
    const std::size_t ncols = std::min<std::size_t>(64, cols - c0);
    for (std::size_t b = 0; b < stride; ++b) {
      const std::size_t k0 = b * 64;
      const std::size_t nrows = k0 < lanes ? std::min<std::size_t>(64, lanes - k0) : 0;
      if (nrows == 0) {
        for (std::size_t c = 0; c < ncols; ++c) words[(c0 + c) * stride + b] = 0;
        continue;
      }
      for (std::size_t r = 0; r < nrows; ++r) {
        const Bit* src = rows + (k0 + r) * row_stride + c0;
        std::uint64_t bits = 0;
        std::size_t c = 0;
        for (; c + 8 <= ncols; c += 8) bits |= gather8(load_bytes(src + c, 8)) << c;
        if (c < ncols) bits |= gather8(load_bytes(src + c, ncols - c)) << c;
        block[r] = bits;
      }
      std::fill(block + nrows, block + 64, std::uint64_t{0});
      transpose64(block);
      for (std::size_t c = 0; c < ncols; ++c) words[(c0 + c) * stride + b] = block[c];
    }
  }
}

void unpack_lanes(const std::uint64_t* words, std::size_t stride,
                  std::size_t cols, std::size_t lanes, Bit* out,
                  std::size_t row_stride) {
  alignas(64) std::uint64_t block[64];
  for (std::size_t c0 = 0; c0 < cols; c0 += 64) {
    const std::size_t ncols = std::min<std::size_t>(64, cols - c0);
    for (std::size_t b = 0; b * 64 < lanes; ++b) {
      const std::size_t k0 = b * 64;
      const std::size_t nrows = std::min<std::size_t>(64, lanes - k0);
      for (std::size_t c = 0; c < ncols; ++c) block[c] = words[(c0 + c) * stride + b];
      std::fill(block + ncols, block + 64, std::uint64_t{0});
      transpose64(block);
      for (std::size_t r = 0; r < nrows; ++r) {
        Bit* dst = out + (k0 + r) * row_stride + c0;
        const std::uint64_t bits = block[r];
        std::size_t c = 0;
        for (; c + 8 <= ncols; c += 8) {
          store_bytes(dst + c, scatter8((bits >> c) & 0xffu), 8);
        }
        if (c < ncols) store_bytes(dst + c, scatter8((bits >> c) & 0xffu), ncols - c);
      }
    }
  }
}

}  // namespace udsim
