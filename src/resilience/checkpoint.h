// Versioned, checksummed snapshots of an interrupted batch run.
//
// A compiled unit-delay shard has exactly one piece of cross-vector state —
// the settled word arena — so a checkpoint is tiny and exact: per shard, the
// next unexecuted vector index, the arena words as of the last executed
// vector, and the output rows already produced. Resuming restores the arena
// and continues; the result is bit-identical to the uninterrupted run for
// any word size (DESIGN.md §5f; the property is enforced across every
// ISCAS-85 profile, engine, and thread count by tests/checkpoint_test.cpp).
//
// The wire format is little-endian with fixed-width fields, a magic/version
// header, and a trailing FNV-1a 64 checksum over everything before it.
// Loading a corrupted, truncated or version-skewed snapshot always raises a
// structured CheckpointError — never UB, never a partial object.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/logic.h"

namespace udsim {

/// Structured load/resume failure; `kind()` names the defect class.
class CheckpointError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    Truncated,          ///< stream ends before the declared payload
    BadMagic,           ///< not a checkpoint at all
    UnsupportedVersion, ///< produced by an incompatible format revision
    ChecksumMismatch,   ///< payload bytes do not match the trailing checksum
    Corrupt,            ///< internally inconsistent (overlapping shards, ...)
    Geometry,           ///< valid snapshot, but for a different run shape
  };

  CheckpointError(Kind kind, std::string message);
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] std::string_view checkpoint_error_name(CheckpointError::Kind k) noexcept;

/// One shard's resumable progress. `arena` is the settled arena (uint64
/// carrier — word_bits/64 consecutive entries per arena word for the wide
/// lanes, truncated to the program word size at 32 bits) after vector
/// `next - 1`; it is empty when the shard never started (`next == begin`,
/// seam replay re-derives the state) or already finished (`next == end`).
/// A lane-packed run (core/batch_runner.h) retains no state: it stops only
/// on pass boundaries and leaves `arena` empty even mid-stream.
struct ShardCheckpoint {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> arena;
  std::vector<Bit> rows;  ///< (next - begin) × probe_count completed outputs

  [[nodiscard]] bool done() const noexcept { return next == end; }
};

/// Whole-run snapshot: program/run geometry plus per-shard progress. A
/// snapshot only resumes a run with the same program shape, vector count and
/// shard boundaries (thread count × min_chunk); anything else is a
/// structured Geometry error, not a silent wrong answer.
struct BatchCheckpoint {
  static constexpr std::uint32_t kMagic = 0x4B434455u;  // "UDCK" little-endian
  static constexpr std::uint32_t kVersion = 1;

  std::uint32_t word_bits = 0;
  std::uint32_t arena_words = 0;
  std::uint32_t input_words = 0;
  std::uint32_t probe_count = 0;
  std::uint64_t num_vectors = 0;
  std::vector<ShardCheckpoint> shards;

  [[nodiscard]] bool complete() const noexcept;
  /// Total vectors whose outputs the snapshot already holds.
  [[nodiscard]] std::uint64_t vectors_done() const noexcept;
};

/// Serialize to the wire format (appends nothing after the checksum).
[[nodiscard]] std::string checkpoint_to_bytes(const BatchCheckpoint& ck);
/// Parse and fully validate; throws CheckpointError on any defect.
[[nodiscard]] BatchCheckpoint checkpoint_from_bytes(std::string_view bytes);

/// Stream variants (binary; the caller owns open/close and stream modes).
void save_checkpoint(std::ostream& out, const BatchCheckpoint& ck);
[[nodiscard]] BatchCheckpoint load_checkpoint(std::istream& in);

}  // namespace udsim
