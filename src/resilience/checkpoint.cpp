#include "resilience/checkpoint.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>

namespace udsim {

namespace {

// FNV-1a 64: tiny, dependency-free, and plenty for detecting the accidental
// corruption this guards against (it is not a cryptographic seal).
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t u32(const char* what) { return static_cast<std::uint32_t>(raw(4, what)); }
  std::uint64_t u64(const char* what) { return raw(8, what); }
  std::uint8_t u8(const char* what) { return static_cast<std::uint8_t>(raw(1, what)); }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  void need(std::uint64_t n, const char* what) const {
    if (n > remaining()) {
      throw CheckpointError(CheckpointError::Kind::Truncated,
                            std::string("checkpoint truncated reading ") + what);
    }
  }

 private:
  std::uint64_t raw(std::size_t n, const char* what) {
    need(n, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

[[noreturn]] void corrupt(const std::string& message) {
  throw CheckpointError(CheckpointError::Kind::Corrupt, "checkpoint " + message);
}

}  // namespace

CheckpointError::CheckpointError(Kind kind, std::string message)
    : std::runtime_error(std::move(message)), kind_(kind) {}

std::string_view checkpoint_error_name(CheckpointError::Kind k) noexcept {
  switch (k) {
    case CheckpointError::Kind::Truncated:
      return "truncated";
    case CheckpointError::Kind::BadMagic:
      return "bad-magic";
    case CheckpointError::Kind::UnsupportedVersion:
      return "unsupported-version";
    case CheckpointError::Kind::ChecksumMismatch:
      return "checksum-mismatch";
    case CheckpointError::Kind::Corrupt:
      return "corrupt";
    case CheckpointError::Kind::Geometry:
      return "geometry";
  }
  return "?";
}

bool BatchCheckpoint::complete() const noexcept {
  for (const ShardCheckpoint& s : shards) {
    if (!s.done()) return false;
  }
  return true;
}

std::uint64_t BatchCheckpoint::vectors_done() const noexcept {
  std::uint64_t n = 0;
  for (const ShardCheckpoint& s : shards) n += s.next - s.begin;
  return n;
}

std::string checkpoint_to_bytes(const BatchCheckpoint& ck) {
  std::string out;
  put_u32(out, BatchCheckpoint::kMagic);
  put_u32(out, BatchCheckpoint::kVersion);
  put_u32(out, ck.word_bits);
  put_u32(out, ck.arena_words);
  put_u32(out, ck.input_words);
  put_u32(out, ck.probe_count);
  put_u64(out, ck.num_vectors);
  put_u32(out, static_cast<std::uint32_t>(ck.shards.size()));
  for (const ShardCheckpoint& s : ck.shards) {
    put_u64(out, s.begin);
    put_u64(out, s.end);
    put_u64(out, s.next);
    out.push_back(s.arena.empty() ? '\0' : '\1');
    if (!s.arena.empty()) {
      for (const std::uint64_t w : s.arena) put_u64(out, w);
    }
    for (const Bit b : s.rows) out.push_back(static_cast<char>(b & 1));
  }
  put_u64(out, fnv1a64(out));
  return out;
}

BatchCheckpoint checkpoint_from_bytes(std::string_view bytes) {
  // The checksum seals everything before it; verify it first so every later
  // parse error is a *structural* finding about intact bytes.
  if (bytes.size() < 8) {
    throw CheckpointError(CheckpointError::Kind::Truncated,
                          "checkpoint shorter than its checksum");
  }
  Reader trailer(bytes.substr(bytes.size() - 8));
  const std::uint64_t declared = trailer.u64("checksum");
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);

  Reader r(payload);
  const std::uint32_t magic = r.u32("magic");
  if (magic != BatchCheckpoint::kMagic) {
    throw CheckpointError(CheckpointError::Kind::BadMagic,
                          "not a udsim checkpoint (bad magic)");
  }
  const std::uint32_t version = r.u32("version");
  if (version != BatchCheckpoint::kVersion) {
    throw CheckpointError(
        CheckpointError::Kind::UnsupportedVersion,
        "checkpoint format version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(BatchCheckpoint::kVersion) + ")");
  }
  if (fnv1a64(payload) != declared) {
    throw CheckpointError(CheckpointError::Kind::ChecksumMismatch,
                          "checkpoint checksum mismatch");
  }

  BatchCheckpoint ck;
  ck.word_bits = r.u32("word_bits");
  ck.arena_words = r.u32("arena_words");
  ck.input_words = r.u32("input_words");
  ck.probe_count = r.u32("probe_count");
  ck.num_vectors = r.u64("num_vectors");
  if (ck.word_bits != 32 && ck.word_bits != 64 && ck.word_bits != 128 &&
      ck.word_bits != 256) {
    corrupt("declares word size " + std::to_string(ck.word_bits));
  }
  // Wide words span word_bits/64 uint64 carrier entries each (DESIGN.md §5j).
  const std::uint64_t carrier_words =
      std::uint64_t{ck.arena_words} *
      (ck.word_bits > 64 ? ck.word_bits / 64 : 1);
  const std::uint32_t shard_count = r.u32("shard_count");
  ck.shards.reserve(std::min<std::uint64_t>(shard_count, r.remaining() / 25));
  std::uint64_t expect_begin = 0;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ShardCheckpoint s;
    s.begin = r.u64("shard begin");
    s.end = r.u64("shard end");
    s.next = r.u64("shard next");
    if (s.begin != expect_begin || s.end < s.begin || s.end > ck.num_vectors) {
      corrupt("shard " + std::to_string(i) + " bounds are inconsistent");
    }
    if (s.next < s.begin || s.next > s.end) {
      corrupt("shard " + std::to_string(i) + " progress outside its bounds");
    }
    expect_begin = s.end;
    // A mid-stream shard may carry no arena (a lane-packed run retains no
    // state); whether the resuming run needs one is BatchRunner's check.
    if (r.u8("arena flag") != 0) {
      r.need(carrier_words * 8, "shard arena");
      s.arena.resize(carrier_words);
      for (std::uint64_t w = 0; w < carrier_words; ++w) {
        s.arena[w] = r.u64("arena word");
      }
    }
    const std::uint64_t row_bits = (s.next - s.begin) * ck.probe_count;
    r.need(row_bits, "shard rows");
    s.rows.resize(row_bits);
    for (std::uint64_t b = 0; b < row_bits; ++b) {
      const std::uint8_t bit = r.u8("row bit");
      if (bit > 1) corrupt("row bit is not 0/1");
      s.rows[b] = static_cast<Bit>(bit);
    }
    ck.shards.push_back(std::move(s));
  }
  if (expect_begin != ck.num_vectors) {
    corrupt("shards do not cover the vector range");
  }
  if (r.remaining() != 0) {
    corrupt("has " + std::to_string(r.remaining()) + " trailing payload bytes");
  }
  return ck;
}

void save_checkpoint(std::ostream& out, const BatchCheckpoint& ck) {
  const std::string bytes = checkpoint_to_bytes(ck);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

BatchCheckpoint load_checkpoint(std::istream& in) {
  std::string bytes(std::istreambuf_iterator<char>(in), {});
  return checkpoint_from_bytes(bytes);
}

}  // namespace udsim
