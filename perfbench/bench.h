// Shared vocabulary of the udsim benchmark program (see README.md in this
// directory): run options, the metric report, statistics helpers, the span
// recorder behind the traced mode, and the three workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double elapsed_us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Flip one sampled output bit before the oracle check (self-test hook
  /// proving that a wrong output fails the run).
  bool inject_mismatch = false;
  /// Directory private to this run (native object cache); removed at exit.
  std::string work_dir = ".bench_build/perfbench/run";
  /// Where the traced run writes its spans (Chrome trace JSON); "" = none.
  std::string trace_out;
};

/// What one workload run reports. `metrics` holds every metric the
/// workload measured; main() selects the end-to-end or per-layer set.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> exact;  ///< exact-count fingerprint
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the generated inputs: equal seeds must give equal digests.
  std::uint64_t input_digest = 0xcbf29ce484222325ull;

  void digest(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      input_digest = (input_digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// An exact count: part of the fingerprint and reported as a metric.
  void count(const std::string& name, std::uint64_t value) {
    exact[name] = value;
    set(name, static_cast<double>(value), "count");
  }
  void fail(std::uint64_t n = 1) { failed += n; }
};

/// Peak resident set of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& v);

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans nest per thread (the innermost open span
/// on the calling thread is the parent); a disabled tracer records nothing
/// and costs one branch per scope.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t request = 0;  ///< service request id, 0 = none
    std::uint32_t thread = 0;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    Tracer& t_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::string name_;
    std::uint64_t request_ = 0;
    std::uint64_t start_ns_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a span whose interval was measured elsewhere (e.g. the queue
  /// and run phases a service response reports) under `parent`.
  /// Returns the new span's id (0 when disabled).
  std::uint32_t record(std::string name, std::uint32_t parent,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t request = 0);

  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per span name: count, summed duration and self time (duration minus
  /// the part covered by direct children).
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  /// Write every span as Chrome trace-event JSON. Returns false on I/O error.
  bool write_json(const std::string& path) const;
  /// Print the self_times() table.
  void print_self_times() const;

 private:
  [[nodiscard]] std::uint64_t ns(Clock::time_point t) const noexcept;
  std::uint32_t open();

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint32_t next_id_ = 0;  // guarded by mu_
};

// --- environment -----------------------------------------------------------

/// Host/build facts printed with every run: ISA flags, compiler, build type,
/// `cc --version`, nproc, effective parallelism, resolved widest lane and
/// the UDSIM_* overrides in the environment. Sets `width_forced` when
/// UDSIM_FORCE_WIDTH is in effect.
struct Environment {
  std::vector<std::pair<std::string, std::string>> fields;
  bool width_forced = false;
};
[[nodiscard]] Environment describe_environment();

// --- workloads -------------------------------------------------------------

Report run_unit_delay_deep(const Options& opt, Tracer& tracer);
Report run_zero_delay_wide(const Options& opt, Tracer& tracer);
Report run_service_small(const Options& opt, Tracer& tracer);

}  // namespace perfbench
