#include "resilience/fault_injection.h"

namespace udsim {

std::string_view fault_site_name(FaultSite s) noexcept {
  switch (s) {
    case FaultSite::WorkerThrow:
      return "worker-throw";
    case FaultSite::ArenaCorrupt:
      return "arena-corrupt";
    case FaultSite::AllocFail:
      return "alloc-fail";
    case FaultSite::DeadlineOverrun:
      return "deadline-overrun";
  }
  return "?";
}

namespace {

std::string fault_message(FaultSite site, std::uint64_t shard,
                          std::uint64_t vector, unsigned attempt) {
  std::string m = "injected ";
  m += fault_site_name(site);
  m += " at shard " + std::to_string(shard) + ", vector " +
       std::to_string(vector) + ", attempt " + std::to_string(attempt);
  return m;
}

// splitmix64: full-avalanche 64-bit mixer; makes the (seed, site, shard,
// vector, attempt) -> fire decision uniform and order-free.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

InjectedFault::InjectedFault(FaultSite site, std::uint64_t shard,
                             std::uint64_t vector, unsigned attempt)
    : std::runtime_error(fault_message(site, shard, vector, attempt)),
      site_(site),
      shard_(shard),
      vector_(vector),
      attempt_(attempt) {}

bool FaultInjector::fires(FaultSite site, std::uint64_t shard,
                          std::uint64_t vector, unsigned attempt,
                          std::uint64_t vectors) const noexcept {
  for (const SiteSpec& s : sites_) {
    if (s.site == site && s.shard == shard && s.vector >= vector &&
        s.vector - vector < vectors && s.attempt == attempt) {
      return true;
    }
  }
  const std::uint32_t rate = rate_[index(site)];
  if (rate == 0 || attempt > rate_max_attempt_[index(site)]) return false;
  const std::uint64_t h =
      mix(mix(mix(mix(seed_ ^ (static_cast<std::uint64_t>(site) + 1)) ^ shard) ^
              vector) ^
          attempt);
  return h % 10000 < rate;
}

std::uint64_t FaultInjector::fired_total() const noexcept {
  std::uint64_t n = 0;
  for (const auto& f : fired_) n += f.load(std::memory_order_relaxed);
  return n;
}

}  // namespace udsim
