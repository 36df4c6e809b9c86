// Deterministic fault injection for the resilient batch layer.
//
// Whether a site fires is a pure function of (seed, site, shard, vector,
// attempt): the same injector configuration produces the same failure sites,
// the same retry counts and the same quarantine decisions on every
// execution — which is what makes the failure-handling tests assertions,
// not flake. Sites can be planted explicitly (exact shard/vector/attempt)
// or drawn from a seeded per-ten-thousand-passes rate; both compose.
//
// The batch layer asks once per executor pass. A lane-packed pass settles
// several vectors (core/batch_runner.h) — consecutive ones, or one from
// each lane's chunk `step` vectors apart — so the query carries the pass's
// vectors as first/count/step: a planted site fires on the pass that
// settles its vector, and the rate draw is keyed by the pass's first
// vector.
//
// Four fault classes cover the failure modes DESIGN.md §5f enumerates:
//   WorkerThrow     — the shard body raises InjectedFault mid-stream
//   ArenaCorrupt    — a settled-arena word is flipped, then trapped (stands
//                     in for a detected memory fault; the shard retries
//                     from its seam and must still be bit-identical)
//   AllocFail       — std::bad_alloc at shard entry
//   DeadlineOverrun — the pass behaves as if the token's deadline expired,
//                     driving the checkpoint path without a real clock
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace udsim {

enum class FaultSite : std::uint8_t {
  WorkerThrow,
  ArenaCorrupt,
  AllocFail,
  DeadlineOverrun,
};
inline constexpr std::size_t kFaultSiteCount = 4;

[[nodiscard]] std::string_view fault_site_name(FaultSite s) noexcept;

/// The exception injected faults surface as (except AllocFail, which throws
/// std::bad_alloc, and DeadlineOverrun, which is not an exception at all).
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, std::uint64_t shard, std::uint64_t vector,
                unsigned attempt);

  [[nodiscard]] FaultSite site() const noexcept { return site_; }
  [[nodiscard]] std::uint64_t shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint64_t vector() const noexcept { return vector_; }
  [[nodiscard]] unsigned attempt() const noexcept { return attempt_; }

 private:
  FaultSite site_;
  std::uint64_t shard_;
  std::uint64_t vector_;
  unsigned attempt_;
};

class FaultInjector {
 public:
  /// An explicit site: fires when (site, shard, attempt) match and the
  /// queried pass covers `vector`.
  struct SiteSpec {
    FaultSite site = FaultSite::WorkerThrow;
    std::uint64_t shard = 0;
    std::uint64_t vector = 0;
    unsigned attempt = 0;
  };

  explicit FaultInjector(std::uint64_t seed) noexcept : seed_(seed) {}

  void add_site(SiteSpec s) { sites_.push_back(s); }

  /// Seeded random firing: `per_10k` chances in 10000 per pass, only on
  /// attempts <= `max_attempt` (so retries eventually run clean and the
  /// retry policy — not the injector — decides the outcome).
  void set_rate(FaultSite site, std::uint32_t per_10k, unsigned max_attempt = 0) {
    rate_[index(site)] = per_10k;
    rate_max_attempt_[index(site)] = max_attempt;
  }

  /// Pure decision function for the pass settling vectors
  /// vector + i * step for i < vectors; record-free (use fire() on the hot
  /// path).
  [[nodiscard]] bool fires(FaultSite site, std::uint64_t shard,
                           std::uint64_t vector, unsigned attempt,
                           std::uint64_t vectors = 1,
                           std::uint64_t step = 1) const noexcept;

  /// fires() plus the per-site fired counter bump.
  [[nodiscard]] bool fire(FaultSite site, std::uint64_t shard,
                          std::uint64_t vector, unsigned attempt,
                          std::uint64_t vectors = 1,
                          std::uint64_t step = 1) noexcept {
    if (!fires(site, shard, vector, attempt, vectors, step)) return false;
    fired_[index(site)].fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Faults this injector has fired, by site (deterministic given the seed
  /// and an identical sequence of fire() queries).
  [[nodiscard]] std::uint64_t fired(FaultSite site) const noexcept {
    return fired_[index(site)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fired_total() const noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  [[nodiscard]] static std::size_t index(FaultSite s) noexcept {
    return static_cast<std::size_t>(s);
  }

  std::uint64_t seed_;
  std::vector<SiteSpec> sites_;
  std::uint32_t rate_[kFaultSiteCount] = {0, 0, 0, 0};
  unsigned rate_max_attempt_[kFaultSiteCount] = {0, 0, 0, 0};
  std::atomic<std::uint64_t> fired_[kFaultSiteCount] = {};
};

}  // namespace udsim
