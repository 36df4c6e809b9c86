// Statistics helpers, peak RSS and the in-memory span recorder of the
// traced mode.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

// Innermost open span per thread; the parent of the next scope opened here.
thread_local std::uint32_t t_open_span = 0;

std::uint32_t thread_index() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, std::uint32_t> ids;
  thread_local std::uint32_t idx = [] {
    std::lock_guard lock(mu);
    return ids.emplace(std::this_thread::get_id(),
                       static_cast<std::uint32_t>(ids.size() + 1))
        .first->second;
  }();
  return idx;
}

}  // namespace

std::uint64_t Tracer::ns(Clock::time_point t) const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count());
}

std::uint32_t Tracer::open() {
  std::lock_guard lock(mu_);
  return ++next_id_;
}

Tracer::Scope::Scope(Tracer& t, std::string name, std::uint64_t request)
    : t_(t) {
  if (!t_.enabled_) return;
  id_ = t_.open();
  parent_ = t_open_span;
  t_open_span = id_;
  name_ = std::move(name);
  request_ = request;
  start_ns_ = t_.ns(Clock::now());
}

Tracer::Scope::~Scope() {
  if (!t_.enabled_) return;
  const std::uint64_t end = t_.ns(Clock::now());
  t_open_span = parent_;
  std::lock_guard lock(t_.mu_);
  t_.spans_.push_back(Span{id_, parent_, std::move(name_), start_ns_, end,
                           request_, thread_index()});
}

std::uint32_t Tracer::record(std::string name, std::uint32_t parent,
                             Clock::time_point start, Clock::time_point end,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  const std::uint32_t id = open();
  std::lock_guard lock(mu_);
  spans_.push_back(Span{id, parent, std::move(name), ns(start), ns(end),
                        request, thread_index()});
  return id;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::lock_guard lock(mu_);
  std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : std::min(it->second, dur);
    SelfTime& st = out[s.name];
    ++st.count;
    st.total_ms += 1e-6 * static_cast<double>(dur);
    st.self_ms += 1e-6 * static_cast<double>(dur - covered);
  }
  return out;
}

void Tracer::print_self_times() const {
  std::printf("self-time %-26s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, st] : self_times()) {
    std::printf("self-time %-26s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms);
  }
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mu_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers: no JSON escaping needed.
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
