// Unified simulator facade: one interface over every engine in the library,
// used by the examples and the cross-engine equivalence tests.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/compile_budget.h"
#include "core/engine_kind.h"
#include "core/kernel_runner.h"
#include "native/native_backend.h"
#include "netlist/diagnostics.h"
#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "resilience/cancel.h"

namespace udsim {

struct Program;
class CircuitBreaker;

/// Result of a batch run: the settled value of every primary output for
/// every vector of the stream, in submission order.
struct BatchResult {
  std::vector<NetId> outputs;  ///< nets sampled (primary outputs, netlist order)
  std::vector<Bit> values;     ///< row-major: one row of outputs per vector
  std::size_t vectors = 0;
  unsigned threads = 1;        ///< worker threads the run was sharded across

  [[nodiscard]] Bit value(std::size_t vector, std::size_t output) const {
    return values.at(vector * outputs.size() + output);
  }
};

/// Validate a row-major stream (one Bit per primary input per vector)
/// against `nl` and return its vector count: the one stream-shape check of
/// every batch entry point. Throws std::invalid_argument naming both sizes,
/// prefixed with `site`, when the size is not a multiple of the
/// primary-input count or the netlist has no primary inputs but the stream
/// is not empty.
[[nodiscard]] std::size_t batch_vector_count(const Netlist& nl,
                                             std::span<const Bit> vectors,
                                             std::string_view site = "run_batch");

/// Per-run knobs of Simulator::run_batch. `cancel` and `metrics` override
/// the instance-wide set_cancel / set_metrics attachments *for this run
/// only* (nullptr = inherit the attachment). The overrides are what lets a
/// long-lived service (src/service/) share one cached const Simulator
/// across concurrent sessions: each request brings its own deadline token
/// and registry without mutating the shared engine.
struct BatchRunOptions {
  unsigned num_threads = 0;            ///< worker threads; 0 = all hardware
  const CancelToken* cancel = nullptr; ///< per-run cancel/deadline override
  MetricsRegistry* metrics = nullptr;  ///< per-run counter sink override
};

/// Minimal common surface: feed vectors, read settled values.
/// (Waveform-level access is engine-specific; use the engine classes
/// directly — ParallelSim::value_at, PCSetSim::value_at, OracleSim::step.)
class Simulator {
 public:
  virtual ~Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Simulate one input vector (one Bit per primary input).
  virtual void step(std::span<const Bit> pi_values) = 0;

  /// Settled value of a net after the last vector.
  [[nodiscard]] virtual Bit final_value(NetId n) const = 0;

  /// Batch-simulate a whole vector stream: `vectors` is row-major, one Bit
  /// per primary input per row (its size must be a multiple of the PI
  /// count). Always computed from the engine's initial (reset) state,
  /// independent of prior step() calls, and never disturbs this instance's
  /// incremental state. Compiled engines shard the stream across
  /// `opts.num_threads` workers (0 = all hardware threads) with
  /// bit-identical results for every thread count; the interpreted event
  /// engines fall back to a single-threaded replay. See DESIGN.md §5c.
  ///
  /// Thread safety: run_batch touches no mutable instance state, so any
  /// number of concurrent run_batch calls may share one Simulator as long
  /// as nobody concurrently calls the mutating entry points (step,
  /// set_metrics, set_cancel) — the contract the service layer's
  /// compiled-program cache relies on.
  [[nodiscard]] virtual BatchResult run_batch(std::span<const Bit> vectors,
                                              const BatchRunOptions& opts) const = 0;

  /// Convenience overload with only a thread count.
  [[nodiscard]] BatchResult run_batch(std::span<const Bit> vectors,
                                      unsigned num_threads = 0) const {
    return run_batch(vectors, BatchRunOptions{.num_threads = num_threads});
  }

  /// The netlist this engine simulates.
  [[nodiscard]] virtual const Netlist& netlist() const noexcept = 0;

  [[nodiscard]] virtual EngineKind kind() const noexcept = 0;

  /// Attach (or detach, with nullptr) a metrics registry: every subsequent
  /// step() and run_batch() records exact runtime counters into it
  /// (sim.vectors, exec.*, event.*, batch.* — DESIGN.md §5e). Counters are
  /// atomic, so one registry may be shared across engines and across the
  /// worker shards of run_batch. Disabled (the default) costs one branch
  /// per vector pass. To also capture compile-phase trace spans, construct
  /// through a CompileGuard/SimPolicy with `metrics` set — the engine then
  /// adopts that registry automatically.
  virtual void set_metrics(MetricsRegistry* reg) noexcept = 0;
  [[nodiscard]] virtual MetricsRegistry* metrics() const noexcept = 0;

  /// The straight-line program a compiled engine executes, or nullptr for
  /// the interpreted event engines. Lets engine-agnostic layers (the
  /// resilient batch facade, the pre-flight ProgramValidator) reach the
  /// program without knowing the engine type.
  [[nodiscard]] virtual const Program* compiled_program() const noexcept = 0;

  /// Arena bits holding each primary output's settled value, in netlist
  /// primary-output order; empty for engines without a compiled program.
  [[nodiscard]] virtual std::vector<ArenaProbe> output_probes() const = 0;

  /// Exact structural cost profile of the compiled program (per-level cost
  /// breakdown, top-K hottest nets, shift-site ledger — obs/profiler.h).
  /// Disengaged (empty) profile for the interpreted event engines.
  [[nodiscard]] virtual ProgramProfile program_profile(
      std::size_t top_k = 8) const = 0;

  /// One JSON document composing the attached registry's counters,
  /// histograms and trace with the program profile (obs/report.h).
  [[nodiscard]] std::string report_to_json(const RunReportOptions& opts = {}) const;

  /// Attach (or detach, with nullptr) a cooperative cancel token: step()
  /// raises Cancelled between vectors once the token has stopped, and
  /// run_batch() propagates the token into its shard workers. One polled
  /// branch per vector pass; zero-cost (a dead branch) when detached.
  virtual void set_cancel(const CancelToken* token) noexcept = 0;

 protected:
  Simulator() = default;
};

/// Construct an engine over `nl` (which must already have wired nets
/// lowered; see lower_wired_nets). The executor lane width is resolved by
/// dispatch_width (core/width_dispatch.h): 32-bit by default, overridable
/// with UDSIM_FORCE_WIDTH.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(const Netlist& nl,
                                                        EngineKind kind);

/// Guarded variant: compiled engines throw BudgetExceeded when their
/// predicted or emitted cost crosses `guard.budget`, and record compile
/// diagnostics into `guard.diag`.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(const Netlist& nl,
                                                        EngineKind kind,
                                                        const CompileGuard& guard);

/// Explicit lane-width variants: `word_bits` is 0 (the 32-bit default),
/// kWidthWidest, or one of 32/64/128/256; an unavailable width steps down
/// the dispatch ladder (guarded variant: recorded as a WidthFallback
/// diagnostic in guard.diag). EngineKind::Native rejects widths above 64.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(const Netlist& nl,
                                                        EngineKind kind,
                                                        int word_bits);
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(const Netlist& nl,
                                                        EngineKind kind,
                                                        const CompileGuard& guard,
                                                        int word_bits);

/// Engine-selection policy for make_simulator_with_fallback: candidate
/// engines in preference order, each gated by the same compile budget.
struct SimPolicy {
  /// Walked front to back; the first engine whose predicted *and* emitted
  /// cost fits `budget` wins. The default chain ends in the interpreted
  /// event-driven engine, which compiles nothing and always fits.
  std::vector<EngineKind> chain{
      EngineKind::ParallelCombined, EngineKind::ParallelTrimmed,
      EngineKind::PCSet, EngineKind::ZeroDelayLcc, EngineKind::Event2};
  CompileBudget budget{};              ///< unlimited by default
  MetricsRegistry* metrics = nullptr;  ///< compile spans + runtime counters
  /// Cooperative stop, honored at compile-phase boundaries during
  /// construction and attached to the built engine for runtime polling.
  const CancelToken* cancel = nullptr;
  /// Run the ProgramValidator pre-flight pass over every compiled engine
  /// the chain builds (including after each downgrade); a rejected program
  /// is treated like a budget miss — diagnosed, then the next engine tried.
  bool validate = true;
  /// Options for any EngineKind::Native entry in the chain (compiler, cache
  /// directory, ...). A native pipeline failure (emit/compile/dlopen) is
  /// recorded as DiagCode::NativeFallback plus a `native.fallback` counter
  /// and the walk continues with the IR engines — native is never allowed
  /// to be silently absent.
  NativeOptions native{};
  /// Executor lane width request, resolved once for the whole chain by
  /// dispatch_width (0 = the 32-bit default, kWidthWidest = widest
  /// available, or 32/64/128/256; UDSIM_FORCE_WIDTH overrides). Native
  /// entries are skipped — with a NativeFallback diagnostic — when the
  /// resolved width exceeds 64 bits.
  int word_bits = 0;
  /// Optional circuit breaker guarding the external toolchain
  /// (resilience/circuit_breaker.h). When set, a Native chain entry first
  /// asks `allow()`: an open breaker skips native immediately — structured
  /// DiagCode::NativeBreakerOpen plus a `native.breaker_skipped` counter,
  /// no emit, no compiler subprocess — and every attempted native build
  /// reports record_success/record_failure so consecutive toolchain
  /// failures trip the breaker for the whole service (DESIGN.md §5k).
  CircuitBreaker* native_breaker = nullptr;
};

/// Walk `policy.chain`, skipping engines whose compile cost exceeds
/// `policy.budget`, and return the first engine that fits. Every downgrade
/// is recorded in `diag` (DiagCode::BudgetDowngrade, with the predicted
/// cost and the limit crossed) and the winner as DiagCode::EngineSelected,
/// so callers can see which engine ran and why. Throws BudgetExceeded when
/// no engine in the chain fits.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator_with_fallback(
    const Netlist& nl, const SimPolicy& policy = {}, Diagnostics* diag = nullptr);

/// The default SimPolicy with EngineKind::Native prepended as the preferred
/// engine: native machine code when the toolchain cooperates, the IR chain
/// (ParallelCombined → ... → Event2) otherwise, with the switch recorded as
/// a NativeFallback diagnostic. See DESIGN.md §5h.
[[nodiscard]] SimPolicy native_sim_policy(NativeOptions opts = {});

}  // namespace udsim
