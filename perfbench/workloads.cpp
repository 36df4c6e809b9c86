// The three benchmark workloads. Each drives the library only through its
// stable public surfaces (make_simulator*, Simulator::run_batch, SimService),
// checks a seeded sample of output rows against the OracleSim interpreter,
// and — in the traced mode — times direct calls into each module's public
// functions to split the end-to-end time by layer. See README.md.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/alignment.h"
#include "analysis/compile_budget.h"
#include "analysis/levelize.h"
#include "analysis/pcset.h"
#include "analysis/trimming.h"
#include "bench.h"
#include "core/kernel_runner.h"
#include "core/simulator.h"
#include "core/thread_pool.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "gen/rng.h"
#include "harness/vectors.h"
#include "ir/wide_word.h"
#include "lcc/lcc.h"
#include "native/native_backend.h"
#include "native/native_sim.h"
#include "oracle/oracle.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "service/sim_service.h"

namespace perfbench {
namespace {

using namespace udsim;
namespace fs = std::filesystem;

/// The paper circuits are the fixed ISCAS-85 stand-ins (profile seed 1), so
/// every seed runs the same programs; the seed varies the vector streams,
/// the row samples and the service's request mix and fresh variants.
constexpr std::uint64_t kCircuitSeed = 1;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9e3779b97f4a7c15ull + salt).next();
}

std::vector<Bit> random_stream(std::size_t vectors, std::size_t pis,
                               std::uint64_t seed) {
  std::vector<Bit> v(vectors * pis);
  RandomVectorSource(pis, seed).next(v);
  return v;
}

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// Removes a directory tree when it goes out of scope.
class ScopedDir {
 public:
  explicit ScopedDir(fs::path p) : path_(std::move(p)) {
    fs::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

/// Compare `rows` seeded rows of `result` against OracleSim. A settled row
/// is a pure function of its own vector, so each row is checked from a
/// reset oracle. Returns the number of mismatching rows.
std::uint64_t oracle_check(OracleSim& oracle, const Netlist& nl,
                           std::span<const Bit> stream, std::size_t row,
                           std::span<const Bit> got, bool inject) {
  const std::size_t pis = nl.primary_inputs().size();
  oracle.reset();
  oracle.step(stream.subspan(row * pis, pis));
  const std::vector<NetId>& pos = nl.primary_outputs();
  for (std::size_t j = 0; j < pos.size(); ++j) {
    const Bit expected = oracle.state(pos[j]);
    const Bit actual = static_cast<Bit>(got[j] ^ (inject && j == 0 ? 1 : 0));
    if (expected != actual) return 1;
  }
  return 0;
}

/// setup_s: the fastest of the run's set-up repetitions, like every other
/// timing here (the median moved by 64% between two 10-run sets of
/// service-small, the fastest far less). The spread is printed.
void report_setup(const std::vector<double>& setup_s, Report& rep) {
  std::printf("setup reps=%zu min=%.6fs median=%.6fs max=%.6fs\n", setup_s.size(),
              quantile(setup_s, 0), median(setup_s), quantile(setup_s, 1));
  rep.set("setup_s", quantile(setup_s, 0), "s");
}

// --- per-layer probes (traced mode) ------------------------------------------

/// Fastest of `reps` timed calls, in microseconds. Layer timings take the
/// best repetition for the same reason the batch rates take the fastest
/// call (see batch_vps).
template <class F>
double best_us(int reps, F&& f) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    f();
    const double us = elapsed_us(t0, Clock::now());
    best = r == 0 ? us : std::min(best, us);
  }
  return best;
}

/// analysis.* and {parsim,pcsim,lcc}.compile_us: direct calls into the
/// analysis passes and the three compilers, summed over the circuits.
void measure_analysis_and_compile(const std::vector<const Netlist*>& nets,
                                  int word_bits, Tracer& tracer, Report& rep) {
  constexpr int kReps = 5;
  double lev = 0, pcs = 0, ali = 0, tri = 0, par = 0, pcc = 0, lcc = 0;
  for (const Netlist* nl : nets) {
    const Levelization lv = levelize(*nl);
    const PCSets pc = compute_pc_sets(*nl, lv);
    const AlignmentPlan plan = align_path_tracing(*nl, lv);
    const std::vector<int> widths = field_widths(*nl, lv, plan, false);
    const auto timed = [&](const char* name, auto&& f) {
      Tracer::Scope s(tracer, name);
      return best_us(kReps, f);
    };
    lev += timed("analysis.levelize", [&] { (void)levelize(*nl); });
    pcs += timed("analysis.pcset", [&] { (void)compute_pc_sets(*nl, lv); });
    ali += timed("analysis.alignment", [&] { (void)align_path_tracing(*nl, lv); });
    tri += timed("analysis.trimming", [&] {
      (void)compute_trim_plan(*nl, lv, pc, plan, widths, word_bits);
    });
    par += timed("parsim.compile", [&] {
      (void)compile_parallel(*nl, ParallelOptions{.trimming = true,
                                                  .shift_elim = ShiftElim::PathTracing,
                                                  .word_bits = word_bits});
    });
    pcc += timed("pcsim.compile", [&] {
      (void)compile_pcset(*nl, {}, false, word_bits);
    });
    lcc += timed("lcc.compile", [&] { (void)compile_lcc(*nl, false, word_bits); });
  }
  rep.set("analysis.levelize_us", lev, "us");
  rep.set("analysis.pcset_us", pcs, "us");
  rep.set("analysis.alignment_us", ali, "us");
  rep.set("analysis.trimming_us", tri, "us");
  rep.set("parsim.compile_us", par, "us");
  rep.set("pcsim.compile_us", pcc, "us");
  rep.set("lcc.compile_us", lcc, "us");
}

/// Vectors of input words staged for the kernel timings. The compiled
/// programs are straight-line code whose cost does not depend on the data,
/// so the kernel cycles over a small cache-resident block: it then measures
/// the executor alone, not the streaming of a wide-word copy of the input.
constexpr std::size_t kStagedVectors = 64;

/// Wall time of `passes` kernel passes over pre-staged input words, split
/// into `threads` contiguous slices each run by its own KernelRunner.
template <class Word>
double kernel_wall_ms(const Program& p, std::span<const Bit> stream,
                      std::size_t passes, unsigned threads) {
  const std::size_t pis = p.input_words;
  std::vector<Word> in(std::min(passes, kStagedVectors) * pis);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<Word>(std::uint64_t{stream[i] & 1u});
  }
  const auto slice = [&](std::size_t lo, std::size_t hi) {
    KernelRunner<Word> runner(p);
    for (std::size_t v = lo; v < hi; ++v) {
      runner.run(std::span<const Word>(in.data() + (v % kStagedVectors) * pis, pis));
    }
  };
  const Clock::time_point t0 = Clock::now();
  if (threads <= 1) {
    slice(0, passes);
  } else {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(slice, passes * t / threads, passes * (t + 1) / threads);
    }
    for (std::thread& th : pool) th.join();
  }
  return ms_since(t0);
}

double kernel_wall_ms(const Simulator& sim, std::span<const Bit> stream,
                      std::size_t passes, unsigned threads) {
  const Program& p = *sim.compiled_program();
  if (const auto* native = dynamic_cast<const NativeSimulator*>(&sim)) {
    // The native kernel: the dlopen'd whole-stream entry point, one call
    // per staged block.
    const std::size_t block = std::min(passes, kStagedVectors);
    std::vector<std::uint32_t> in(block * p.input_words);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = stream[i] & 1u;
    std::vector<std::uint32_t> arena(p.arena_words);
    native->module().init(arena.data());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t done = 0; done < passes; done += block) {
      native->module().run(arena.data(), in.data(), std::min(block, passes - done));
    }
    return ms_since(t0);
  }
  switch (p.word_bits) {
    case 64: return kernel_wall_ms<std::uint64_t>(p, stream, passes, threads);
#if UDSIM_HAS_W128
    case 128: return kernel_wall_ms<u128>(p, stream, passes, threads);
#endif
    case 256: return kernel_wall_ms<u256>(p, stream, passes, threads);
    default: return kernel_wall_ms<std::uint32_t>(p, stream, passes, threads);
  }
}

/// One engine × circuit × stream combination whose run_batch time is split
/// into kernel, fixed per-call cost and the non-kernel remainder.
struct SplitCell {
  std::string label;
  const Simulator* sim = nullptr;
  std::span<const Bit> stream;
  std::size_t vectors = 0;
  unsigned threads = 1;
};

/// core.*: kernel ns/pass, fixed per-call cost, non-kernel remainder,
/// kernel share and pool spawn cost. run_batch, the kernel over the same
/// pre-staged stream and a one-vector run_batch are timed in interleaved
/// rounds, so their fastest readings come from the same stretch of host
/// load. Prints the per-cell split and checks that the kernel and fixed
/// parts fit inside run_batch.
void measure_core_split(const std::vector<SplitCell>& cells, unsigned threads,
                        Tracer& tracer, Report& rep) {
  constexpr int kRounds = 25;
  constexpr double kTolerance = 0.10;  // share of run_batch
  std::vector<double> ns_per_pass, shares, fixed_us;
  double nonkernel_ms = 0;
  std::size_t violations = 0;
  std::printf("layer-split %-28s %10s %10s %10s %10s %7s\n", "cell", "run_batch",
              "kernel", "fixed", "nonkernel", "kshare");
  for (const SplitCell& c : cells) {
    const std::size_t pis = c.sim->netlist().primary_inputs().size();
    const std::span<const Bit> first = c.stream.subspan(0, pis);
    std::vector<double> batch, one, par, fixed;
    for (int r = 0; r < kRounds; ++r) {
      {
        Tracer::Scope s(tracer, "core.run_batch");
        const Clock::time_point t0 = Clock::now();
        (void)c.sim->run_batch(c.stream, c.threads);
        batch.push_back(ms_since(t0));
      }
      {
        Tracer::Scope s(tracer, "ir.kernel");
        one.push_back(kernel_wall_ms(*c.sim, c.stream, c.vectors, 1));
        if (c.threads > 1) par.push_back(kernel_wall_ms(*c.sim, c.stream, c.vectors, c.threads));
      }
      {
        Tracer::Scope s(tracer, "core.fixed_call");
        const Clock::time_point t0 = Clock::now();
        (void)c.sim->run_batch(first, c.threads);
        fixed.push_back(ms_since(t0));
      }
    }
    const double batch_ms = quantile(batch, 0);
    const double one_thread_ms = quantile(one, 0);
    const double kernel_ms = c.threads > 1 ? quantile(par, 0) : one_thread_ms;
    const double fixed_ms = quantile(fixed, 0);
    const double rest = batch_ms - kernel_ms - fixed_ms;
    if (rest < -kTolerance * batch_ms) ++violations;
    ns_per_pass.push_back(1e6 * one_thread_ms / static_cast<double>(c.vectors));
    shares.push_back(kernel_ms / batch_ms);
    fixed_us.push_back(1e3 * fixed_ms);
    nonkernel_ms += rest;
    std::printf("layer-split %-28s %8.3fms %8.3fms %8.3fms %8.3fms %6.1f%%\n",
                c.label.c_str(), batch_ms, kernel_ms, fixed_ms, rest,
                100 * kernel_ms / batch_ms);
  }
  std::printf("layer-split check: kernel + fixed <= run_batch (+%.0f%%) on %zu of %zu cells%s\n",
              100 * kTolerance, cells.size() - violations, cells.size(),
              violations ? "  VIOLATION" : "");
  double pool_us = 0;
  {
    Tracer::Scope s(tracer, "core.pool_spawn");
    pool_us = best_us(51, [&] { ThreadPool pool(threads); });
  }
  rep.set("core.kernel_ns_per_pass", geomean(ns_per_pass), "ns");
  rep.set("core.nonkernel_ms", nonkernel_ms, "ms");
  double share_sum = 0;
  for (double s : shares) share_sum += s;
  rep.set("core.kernel_share", share_sum / static_cast<double>(shares.size()), "ratio");
  double fixed_sum = 0;
  for (double f : fixed_us) fixed_sum += f;
  rep.set("core.fixed_call_us", fixed_sum / static_cast<double>(fixed_us.size()), "us");
  rep.set("core.pool_spawn_us", pool_us, "us");
}

/// Exact counts of one run_batch per simulator with a private registry
/// attached: program size, per-vector executed ops, seam replays, width.
void count_programs(const std::vector<SplitCell>& cells, Report& rep) {
  std::uint64_t ops = 0, arena = 0, exec_per_vector = 0, seams = 0;
  int width = 0;
  for (const SplitCell& c : cells) {
    const Program& p = *c.sim->compiled_program();
    ops += p.ops.size();
    arena += p.arena_words;
    width = std::max(width, p.word_bits);
    MetricsRegistry reg;
    (void)c.sim->run_batch(c.stream, BatchRunOptions{.num_threads = c.threads,
                                                     .metrics = &reg});
    const std::uint64_t vectors = reg.counter("sim.vectors").value();
    exec_per_vector += vectors ? reg.counter("exec.ops").value() / vectors : 0;
    seams += reg.counter("batch.seam_vectors").value();
  }
  rep.count("ir.ops", ops);
  rep.count("ir.arena_words", arena);
  rep.count("exec.ops_per_vector", exec_per_vector);
  rep.count("batch.seam_vectors", seams);
  rep.set("dispatch.width", width, "bits");
}

/// Native build cost through NativeModule: cold into a private directory,
/// then a warm load (cache hit) from the same directory.
void measure_native(const std::vector<const Simulator*>& sims,
                    const fs::path& dir, Tracer& tracer, Report& rep) {
  double build_ms = 0, load_ms = 0;
  ScopedDir cache(dir);
  for (const Simulator* sim : sims) {
    NativeOptions opts;
    opts.cache_dir = cache.path().string();
    const Program& p = *sim->compiled_program();
    Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "native.build");
      NativeModule cold(p, "parallel-combined", opts);
    }
    build_ms += ms_since(t0);
    t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "native.load");
      NativeModule warm(p, "parallel-combined", opts);
      ++rep.attempted;
      if (!warm.from_cache()) rep.fail();
    }
    load_ms += ms_since(t0);
  }
  rep.set("native.build_ms", build_ms, "ms");
  rep.set("native.load_ms", load_ms, "ms");
}

// --- batch workloads (unit-delay-deep, zero-delay-wide) -------------------------

struct CellSpec {
  const char* circuit;
  EngineKind kind;
  int word_bits;        ///< request passed to make_simulator (0 = default)
  std::size_t vectors;  ///< stream length of one run_batch call
};

struct BatchSpec {
  std::vector<CellSpec> cells;
  unsigned threads = 1;   ///< run_batch worker threads
  int setup_reps = 3;     ///< setups timed for setup_s (fastest reported)
  std::size_t oracle_rows = 64;  ///< rows checked per cell
};

struct BatchCell {
  CellSpec spec;
  std::string label;
  const Netlist* nl = nullptr;
  std::vector<Bit> stream;
  std::unique_ptr<Simulator> sim;
  std::vector<double> build_ms;  ///< make_simulator* per setup repetition
};

std::string cell_label(const CellSpec& c) {
  std::string engine;
  switch (c.kind) {
    case EngineKind::ParallelCombined: engine = "combined"; break;
    case EngineKind::PCSet: engine = "pcset"; break;
    case EngineKind::ZeroDelayLcc: engine = "lcc"; break;
    case EngineKind::Native: engine = "native"; break;
    default: engine = std::string(engine_name(c.kind)); break;
  }
  return engine + "/" + c.circuit;
}

/// Build one cell's simulator through the public factory. Native cells go
/// through the fallback chain with the combined IR engine behind native, so
/// a toolchain failure shows up as an engine mismatch, not as an error.
std::unique_ptr<Simulator> build_cell(const BatchCell& c, const fs::path& native_dir) {
  if (c.spec.kind == EngineKind::Native) {
    SimPolicy policy;
    policy.chain = {EngineKind::Native, EngineKind::ParallelCombined};
    policy.native.cache_dir = native_dir.string();
    return make_simulator_with_fallback(*c.nl, policy);
  }
  return make_simulator(*c.nl, c.spec.kind, c.spec.word_bits);
}

/// Per-cell call latencies of the rounds of one timed phase.
struct TimedPhase {
  std::vector<std::vector<double>> call_ms;  ///< per cell
};

/// Round-robin run_batch over every cell, whole rounds, until `seconds`.
/// With tracing on, rounds alternate untraced/traced so both halves see the
/// same machine load: result[0] holds the untraced rounds, result[1] the
/// traced ones (empty when tracing is off).
std::array<TimedPhase, 2> time_batch_calls(std::vector<BatchCell>& cells, unsigned threads,
                                           double seconds, Tracer& tracer, Report& rep,
                                           std::vector<std::optional<BatchResult>>& keep) {
  std::array<TimedPhase, 2> phases;
  for (TimedPhase& t : phases) t.call_ms.resize(cells.size());
  Tracer off(false);
  Tracer::Scope phase(tracer, "bench.timed");
  const Clock::time_point start = Clock::now();
  const std::size_t min_rounds = tracer.enabled() ? 2 : 1;
  for (std::size_t round = 0; round < min_rounds || seconds_since(start) < seconds; ++round) {
    const bool traced = tracer.enabled() && round % 2 == 1;
    TimedPhase& t = phases[traced ? 1 : 0];
    for (std::size_t i = 0; i < cells.size(); ++i) {
      BatchCell& c = cells[i];
      ++rep.attempted;
      std::optional<BatchResult> r;
      const Clock::time_point t0 = Clock::now();
      try {
        Tracer::Scope s(traced ? tracer : off, "core.run_batch");
        r = c.sim->run_batch(c.stream, threads);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run_batch %s threw: %s\n", c.label.c_str(), e.what());
      }
      t.call_ms[i].push_back(ms_since(t0));
      if (!r || r->vectors != c.spec.vectors ||
          r->values.size() != c.spec.vectors * c.nl->primary_outputs().size()) {
        rep.fail();
        continue;
      }
      if (!keep[i]) keep[i] = std::move(r);
    }
  }
  return phases;
}

/// Geometric mean over cells of vectors / fastest call time: every cell
/// counts equally, however fast its engine. The fastest call, not the
/// median: the host switches for minutes at a time between a state in
/// which calls run at full speed and one in which most take up to 1.6x as
/// long, and only the fastest calls stay near full speed in both
/// (README.md, "Noise").
double batch_vps(const std::vector<BatchCell>& cells, const TimedPhase& t) {
  std::vector<double> vps;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    vps.push_back(static_cast<double>(cells[i].spec.vectors) / (1e-3 * quantile(t.call_ms[i], 0)));
  }
  return geomean(vps);
}

/// The batch workloads' timing metrics all read each cell at its fastest
/// call (see batch_vps): the rates are geometric means over cells, and the
/// latency percentiles are taken over the set of per-cell fastest calls.
void report_batch_end_to_end(const std::vector<BatchCell>& cells,
                             const TimedPhase& t, Report& rep) {
  std::vector<double> best_ms, best_rate;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    best_ms.push_back(quantile(t.call_ms[i], 0));
    best_rate.push_back(1e3 / best_ms.back());
    std::printf("cell %-16s vectors=%-6zu calls=%-4zu min=%.3fms p25=%.3fms "
                "median=%.3fms p99=%.3fms\n",
                cells[i].label.c_str(), cells[i].spec.vectors, t.call_ms[i].size(),
                best_ms.back(), quantile(t.call_ms[i], 0.25), median(t.call_ms[i]),
                quantile(t.call_ms[i], 0.99));
  }
  rep.set("throughput_vps", batch_vps(cells, t), "vectors/s");
  rep.set("requests_per_s", geomean(best_rate), "1/s");
  rep.set("latency_p50_ms", median(best_ms), "ms");
  rep.set("latency_p99_ms", quantile(best_ms, 0.99), "ms");
}

Report run_batch_workload(const BatchSpec& spec, const Options& opt, Tracer& tracer) {
  Report rep;
  ScopedDir work(fs::path(opt.work_dir) / "native-cache");

  // Inputs: fixed circuits, seeded streams — all generated before timing.
  std::map<std::string, std::unique_ptr<Netlist>> nets;
  std::vector<BatchCell> cells;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& cs = spec.cells[i];
    auto& nl = nets[cs.circuit];
    if (!nl) nl = std::make_unique<Netlist>(make_iscas85_like(cs.circuit, kCircuitSeed));
    BatchCell c;
    c.spec = cs;
    c.label = cell_label(cs);
    c.nl = nl.get();
    c.stream = random_stream(cs.vectors, nl->primary_inputs().size(), mix(opt.seed, i));
    for (Bit b : c.stream) rep.digest(b);
    cells.push_back(std::move(c));
  }

  // Setup: every simulator built `setup_reps` times (native cold each time,
  // into a fresh private cache directory); the last build is kept.
  std::vector<double> setup_s;
  {
    Tracer::Scope setup(tracer, "bench.setup");
    for (int r = 0; r < spec.setup_reps; ++r) {
      const fs::path dir = work.path() / ("setup-" + std::to_string(r));
      for (BatchCell& c : cells) c.sim.reset();
      const Clock::time_point t0 = Clock::now();
      for (BatchCell& c : cells) {
        const Clock::time_point c0 = Clock::now();
        Tracer::Scope s(tracer, "core.make_simulator");
        c.sim = build_cell(c, dir);
        c.build_ms.push_back(ms_since(c0));
      }
      setup_s.push_back(seconds_since(t0));
    }
  }
  report_setup(setup_s, rep);
  double make_ms = 0;
  for (const BatchCell& c : cells) make_ms += median(c.build_ms);
  rep.set("core.make_simulator_ms", make_ms, "ms");

  // The engine and lane width that run must be the ones requested.
  for (const BatchCell& c : cells) {
    ++rep.attempted;
    const int want_bits = c.spec.kind == EngineKind::Native
                              ? 32
                              : dispatch_width(c.spec.word_bits).word_bits;
    const Program* p = c.sim->compiled_program();
    if (c.sim->kind() != c.spec.kind || p == nullptr || p->word_bits != want_bits) {
      std::fprintf(stderr, "cell %s: engine %s at %d bits, requested %s at %d bits\n",
                   c.label.c_str(), std::string(engine_name(c.sim->kind())).c_str(),
                   p ? p->word_bits : 0, std::string(engine_name(c.spec.kind)).c_str(),
                   want_bits);
      rep.fail();
    }
  }

  // Timed phase; the traced mode reports from its traced rounds and
  // compares them with the untraced ones for the tracing overhead.
  std::vector<std::optional<BatchResult>> kept(cells.size());
  const std::array<TimedPhase, 2> phases =
      time_batch_calls(cells, spec.threads, opt.seconds, tracer, rep, kept);
  const TimedPhase& timed = phases[opt.trace ? 1 : 0];
  report_batch_end_to_end(cells, timed, rep);
  if (opt.trace) {
    const double untraced = batch_vps(cells, phases[0]);
    rep.set("trace.overhead_share", (untraced - batch_vps(cells, timed)) / untraced, "ratio");
  }

  // Output check against the oracle (untimed).
  std::uint64_t checked = 0;
  {
    Tracer::Scope s(tracer, "oracle.check");
    Rng rng(mix(opt.seed, 0x0c4ec4));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!kept[i]) continue;
      OracleSim oracle(*cells[i].nl);
      const BatchResult& r = *kept[i];
      const std::size_t outs = r.outputs.size();
      for (std::size_t k = 0; k < spec.oracle_rows; ++k) {
        const std::size_t row = rng.below(r.vectors);
        ++rep.attempted;
        ++checked;
        const std::uint64_t bad = oracle_check(
            oracle, *cells[i].nl, cells[i].stream, row,
            std::span<const Bit>(r.values).subspan(row * outs, outs),
            opt.inject_mismatch && i == 0 && k == 0);
        if (bad) {
          std::fprintf(stderr, "oracle mismatch: %s row %zu\n", cells[i].label.c_str(), row);
        }
        rep.fail(bad);
      }
    }
  }
  rep.count("oracle.checked_rows", checked);

  std::vector<SplitCell> split;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    split.push_back(SplitCell{cells[i].label, cells[i].sim.get(), cells[i].stream,
                              cells[i].spec.vectors, spec.threads});
  }
  count_programs(split, rep);

  if (opt.trace) {
    Tracer::Scope s(tracer, "bench.layers");
    std::vector<const Netlist*> circuits;
    for (const auto& [name, nl] : nets) circuits.push_back(nl.get());
    measure_analysis_and_compile(circuits, dispatch_width(spec.cells[0].word_bits).word_bits,
                                 tracer, rep);
    measure_core_split(split, spec.threads, tracer, rep);
    std::vector<const Simulator*> native;
    for (const BatchCell& c : cells) {
      if (c.spec.kind == EngineKind::Native) native.push_back(c.sim.get());
    }
    if (!native.empty()) measure_native(native, work.path() / "layers", tracer, rep);
  }
  return rep;
}

// --- service-small -------------------------------------------------------------

constexpr const char* kServiceCircuits[] = {"c432", "c499", "c880", "c1355"};
constexpr std::size_t kBases = 4;
constexpr std::size_t kFresh = 24;            ///< fresh-seed variants in rotation
constexpr std::size_t kStreamsPerBase = 128;  ///< distinct request streams
/// Fresh-variant requests draw from the first few streams only, so each
/// miss kind (see kind_of) is seen often enough for its fastest latency.
constexpr std::size_t kFreshStreams = 8;
constexpr std::size_t kSchedule = 16384;      ///< requests per client, cycled
constexpr unsigned kClients = 2;
constexpr std::size_t kCountRequests = 2000;  ///< deterministic count pass
constexpr std::size_t kSamplesPerClient = 256;  ///< first requests checked
constexpr std::size_t kCountSampleEvery = 8;    ///< count-pass check stride
/// peak_rss_mb is read once this many requests have completed: the
/// service's request-trace buffer grows with every request served, so a
/// fixed point in the work keeps a faster build from reading as bigger.
constexpr std::uint64_t kRssAfterRequests = 20000;

/// Peak RSS (MiB) when the kRssAfterRequests-th request completed.
struct RssProbe {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<double> mib{0};
  void on_completed() {
    if (completed.fetch_add(1, std::memory_order_relaxed) + 1 == kRssAfterRequests) {
      mib.store(peak_rss_mib(), std::memory_order_relaxed);
    }
  }
};

struct ServiceInputs {
  std::vector<std::shared_ptr<const Netlist>> nets;  ///< bases, then fresh
  std::vector<std::vector<std::vector<Bit>>> streams;  ///< per base
  struct Req {
    std::uint32_t net = 0;
    std::uint32_t stream = 0;
  };
  std::vector<std::vector<Req>> schedule;  ///< per client
  [[nodiscard]] std::size_t base_of(std::size_t net) const {
    return net < kBases ? net : (net - kBases) % kBases;
  }
  [[nodiscard]] const std::vector<Bit>& vectors(const Req& r) const {
    return streams[base_of(r.net)][r.stream];
  }
  /// Requests of one kind do the same work: same base circuit, same stream,
  /// and either a cache hit on the base program or a fresh variant's miss.
  [[nodiscard]] std::uint32_t kind_of(const Req& r) const {
    return static_cast<std::uint32_t>((base_of(r.net) * kStreamsPerBase + r.stream) * 2 +
                                      (r.net >= kBases ? 1 : 0));
  }
};

ServiceInputs make_service_inputs(std::uint64_t seed) {
  ServiceInputs in;
  for (const char* c : kServiceCircuits) {
    in.nets.push_back(std::make_shared<Netlist>(make_iscas85_like(c, kCircuitSeed)));
  }
  for (std::size_t k = 0; k < kFresh; ++k) {
    // Variant seeds never equal kCircuitSeed, so a variant is never a base.
    const std::uint64_t vseed = 2 + mix(seed, 0xf7e5 + k) % (1ull << 40);
    in.nets.push_back(std::make_shared<Netlist>(
        make_iscas85_like(kServiceCircuits[k % kBases], vseed)));
  }
  Rng rng(mix(seed, 0x5e7));
  in.streams.resize(kBases);
  for (std::size_t b = 0; b < kBases; ++b) {
    const std::size_t pis = in.nets[b]->primary_inputs().size();
    for (std::size_t s = 0; s < kStreamsPerBase; ++s) {
      // Log-uniform 16..256 vectors.
      const auto len = static_cast<std::size_t>(std::lround(16.0 * std::pow(16.0, rng.uniform())));
      in.streams[b].push_back(random_stream(len, pis, rng.next()));
    }
  }
  std::size_t next_fresh = 0;
  in.schedule.resize(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kSchedule; ++i) {
      ServiceInputs::Req r;
      if (rng.below(20) == 0) {
        r.net = static_cast<std::uint32_t>(kBases + next_fresh++ % kFresh);
        r.stream = static_cast<std::uint32_t>(rng.below(kFreshStreams));
      } else {
        r.net = static_cast<std::uint32_t>(rng.below(kBases));
        r.stream = static_cast<std::uint32_t>(rng.below(kStreamsPerBase));
      }
      in.schedule[c].push_back(r);
    }
  }
  return in;
}

struct RowSample {
  ServiceInputs::Req req;
  std::size_t row = 0;
  std::vector<Bit> got;
};

struct ClientLog {
  std::vector<double> latency_us, queue_us, run_us, overhead_us;
  std::vector<std::uint32_t> kind;  ///< request kind of each completed request
  std::uint64_t requests = 0, completed = 0, vectors = 0;
  std::uint64_t attempts = 0, overhead_violations = 0;
  double elapsed_s = 0;
};

/// Closed loop: `kClients` threads, each waiting for its reply before
/// sending the next request, for `seconds`. Client c continues its schedule
/// at next[c]; results accumulate into logs[c], oracle samples into
/// samples[c].
void drive_service(SimService& svc, const std::vector<SessionId>& sessions,
                   const ServiceInputs& in, double seconds, Tracer& tracer,
                   std::uint64_t seed, std::vector<std::size_t>& next,
                   std::vector<ClientLog>& logs,
                   std::vector<std::vector<RowSample>>& samples, RssProbe& rss) {
  std::atomic<bool> go{false};
  Tracer::Scope phase(tracer, "bench.timed");
  const std::uint32_t phase_id = phase.id();
  const auto client = [&](unsigned c) {
    ClientLog& log = logs[c];
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Clock::time_point start = Clock::now();
    for (std::size_t& i = next[c]; seconds_since(start) < seconds; ++i) {
      const ServiceInputs::Req& spec = in.schedule[c][i % kSchedule];
      SimRequest req{.netlist = in.nets[spec.net], .vectors = in.vectors(spec)};
      const Clock::time_point t0 = Clock::now();
      const SimResponse resp = svc.run(sessions[c], std::move(req));
      const Clock::time_point t1 = Clock::now();
      ++log.requests;
      log.attempts += resp.attempts;
      if (resp.outcome != Outcome::Completed || resp.engine != EngineKind::ParallelCombined) {
        std::fprintf(stderr, "request %zu of client %u: %s via %s (%s)\n", i, c,
                     std::string(outcome_name(resp.outcome)).c_str(),
                     std::string(engine_name(resp.engine)).c_str(), resp.detail.c_str());
        continue;
      }
      ++log.completed;
      rss.on_completed();
      log.vectors += resp.batch.vectors;
      const double lat = elapsed_us(t0, t1);
      const double q = 1e-3 * static_cast<double>(resp.queue_ns);
      const double run = 1e-3 * static_cast<double>(resp.run_ns);
      log.latency_us.push_back(lat);
      log.kind.push_back(in.kind_of(spec));
      log.queue_us.push_back(q);
      log.run_us.push_back(run);
      log.overhead_us.push_back(lat - q - run);
      if (q + run > lat) ++log.overhead_violations;
      if (tracer.enabled()) {
        const std::uint32_t id = tracer.record("service.request", phase_id, t0, t1, resp.trace_id);
        const auto qend = t0 + std::chrono::nanoseconds(resp.queue_ns);
        tracer.record("service.queue_wait", id, t0, qend, resp.trace_id);
        tracer.record("service.run", id, t1 - std::chrono::nanoseconds(resp.run_ns), t1,
                      resp.trace_id);
      }
      if (i < kSamplesPerClient) {
        const std::size_t outs = resp.batch.outputs.size();
        const std::size_t row = mix(seed, (std::uint64_t{c} << 32) + i) % resp.batch.vectors;
        samples[c].push_back(RowSample{
            spec, row,
            std::vector<Bit>(resp.batch.values.begin() + row * outs,
                             resp.batch.values.begin() + (row + 1) * outs)});
      }
    }
    log.elapsed_s += seconds_since(start);
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

struct ServiceTotals {
  std::vector<double> latency_us, queue_us, run_us, overhead_us;
  std::vector<std::uint32_t> kind;
  std::uint64_t requests = 0, completed = 0, vectors = 0, attempts = 0, violations = 0;
  double elapsed_s = 0;
};

ServiceTotals merge(const std::vector<ClientLog>& logs) {
  ServiceTotals t;
  for (const ClientLog& l : logs) {
    t.latency_us.insert(t.latency_us.end(), l.latency_us.begin(), l.latency_us.end());
    t.queue_us.insert(t.queue_us.end(), l.queue_us.begin(), l.queue_us.end());
    t.run_us.insert(t.run_us.end(), l.run_us.begin(), l.run_us.end());
    t.overhead_us.insert(t.overhead_us.end(), l.overhead_us.begin(), l.overhead_us.end());
    t.kind.insert(t.kind.end(), l.kind.begin(), l.kind.end());
    t.requests += l.requests;
    t.completed += l.completed;
    t.vectors += l.vectors;
    t.attempts += l.attempts;
    t.violations += l.overhead_violations;
    t.elapsed_s = std::max(t.elapsed_s, l.elapsed_s);
  }
  return t;
}

/// The service's end-to-end timings read every completed request at the
/// fastest latency its kind of request reached in the run, the service
/// counterpart of the batch workloads' fastest call: host noise stretched
/// wall-clock request rates by 2x between runs while these moved by ~10%
/// (README.md, "Noise"). The wall-clock figures are printed beside them.
struct KindBest {
  std::vector<double> latency_us;  ///< per completed request
  double requests_per_s = 0;       ///< closed loop: kClients / mean latency
  double vectors_per_s = 0;
};

KindBest kind_best(const ServiceTotals& t) {
  std::map<std::uint32_t, double> best;
  for (std::size_t k = 0; k < t.kind.size(); ++k) {
    const auto [it, fresh] = best.emplace(t.kind[k], t.latency_us[k]);
    if (!fresh) it->second = std::min(it->second, t.latency_us[k]);
  }
  KindBest kb;
  double sum_us = 0;
  for (std::uint32_t kind : t.kind) {
    kb.latency_us.push_back(best.at(kind));
    sum_us += kb.latency_us.back();
  }
  if (sum_us > 0) {
    kb.requests_per_s = kClients * 1e6 * static_cast<double>(t.completed) / sum_us;
    kb.vectors_per_s = kClients * 1e6 * static_cast<double>(t.vectors) / sum_us;
  }
  return kb;
}

std::map<std::string, std::uint64_t> cache_counters(SimService& svc) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : {"service.cache.hit", "service.cache.miss",
                           "service.cache.build", "service.cache.evicted"}) {
    out[name] = svc.metrics().counter(name).value();
  }
  return out;
}

}  // namespace

Report run_unit_delay_deep(const Options& opt, Tracer& tracer) {
  BatchSpec spec;
  // Stream lengths give each call 10-50 ms on a 4-vCPU Xeon VM: long enough
  // that the kernel dominates, short enough for dozens of calls per cell.
  spec.cells = {
      {"c1908", EngineKind::ParallelCombined, 0, 4096},
      {"c6288", EngineKind::ParallelCombined, 0, 1024},
      {"c7552", EngineKind::ParallelCombined, 0, 512},
      {"c1908", EngineKind::PCSet, 0, 512},
      {"c6288", EngineKind::PCSet, 0, 256},
      {"c7552", EngineKind::PCSet, 0, 256},
      {"c880", EngineKind::Native, 0, 32768},
      {"c1908", EngineKind::Native, 0, 16384},
  };
  spec.threads = 1;
  spec.setup_reps = 5;
  spec.oracle_rows = 64;
  return run_batch_workload(spec, opt, tracer);
}

Report run_zero_delay_wide(const Options& opt, Tracer& tracer) {
  BatchSpec spec;
  spec.cells = {
      {"c432", EngineKind::ZeroDelayLcc, kWidthWidest, 65536},
      {"c2670", EngineKind::ZeroDelayLcc, kWidthWidest, 8192},
      {"c5315", EngineKind::ZeroDelayLcc, kWidthWidest, 4096},
  };
  // One thread: at two, the speed of a call depended on how many cores the
  // host granted, which moved between runs by more than the bound.
  spec.threads = 1;
  spec.setup_reps = 21;
  spec.oracle_rows = 256;
  return run_batch_workload(spec, opt, tracer);
}

Report run_service_small(const Options& opt, Tracer& tracer) {
  Report rep;
  const ServiceInputs in = make_service_inputs(opt.seed);
  for (const auto& client : in.schedule) {
    for (const ServiceInputs::Req& r : client) rep.digest((std::uint64_t{r.net} << 32) | r.stream);
  }
  for (const auto& base : in.streams) {
    for (const std::vector<Bit>& stream : base) {
      for (Bit b : stream) rep.digest(b);
    }
  }
  for (const auto& nl : in.nets) rep.digest(nl->net_count());

  // The cache budget holds the four base programs plus about one variant,
  // so every fresh variant compiles on the request path and evicts.
  std::vector<std::unique_ptr<Simulator>> direct(in.nets.size());
  for (std::size_t n = 0; n < in.nets.size(); ++n) {
    direct[n] = make_simulator(*in.nets[n], EngineKind::ParallelCombined);
  }
  std::size_t base_bytes = 0, max_bytes = 0;
  for (std::size_t b = 0; b < kBases; ++b) {
    const std::size_t bytes =
        measure_compile_cost(*direct[b]->compiled_program(), EngineKind::ParallelCombined,
                             in.nets[b]->net_count())
            .peak_bytes;
    base_bytes += bytes;
    max_bytes = std::max(max_bytes, bytes);
  }
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.batch_threads = 1;
  cfg.cache_budget_bytes = base_bytes + max_bytes * 3 / 2;

  // Setup: construct the service and warm the base circuits into its cache.
  std::unique_ptr<SimService> svc;
  std::vector<SessionId> sessions;
  std::vector<double> setup_s;
  {
    Tracer::Scope setup(tracer, "bench.setup");
    for (int r = 0; r < 21; ++r) {
      svc.reset();
      sessions.clear();
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope s(tracer, "service.setup");
      svc = std::make_unique<SimService>(cfg);
      for (unsigned c = 0; c < kClients; ++c) {
        sessions.push_back(svc->open_session("client-" + std::to_string(c)));
      }
      for (std::size_t b = 0; b < kBases; ++b) {
        const SimResponse resp =
            svc->run(sessions[0], SimRequest{.netlist = in.nets[b], .vectors = in.streams[b][0]});
        ++rep.attempted;
        if (resp.outcome != Outcome::Completed) rep.fail();
      }
      setup_s.push_back(seconds_since(t0));
    }
  }
  report_setup(setup_s, rep);

  // Timed phase. The traced mode alternates untraced and traced segments,
  // reports from the traced ones and compares the two for the overhead.
  const auto before = cache_counters(*svc);
  std::array<std::vector<ClientLog>, 2> logs{std::vector<ClientLog>(kClients),
                                             std::vector<ClientLog>(kClients)};
  std::vector<std::vector<RowSample>> samples(kClients);
  std::vector<std::size_t> next(kClients, 0);
  RssProbe rss;
  if (opt.trace) {
    constexpr double kSegment = 0.5;
    Tracer off(false);
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < 2 || seconds_since(start) < opt.seconds; ++k) {
      drive_service(*svc, sessions, in, kSegment, k % 2 ? tracer : off, opt.seed, next,
                    logs[k % 2], samples, rss);
    }
  } else {
    drive_service(*svc, sessions, in, opt.seconds, tracer, opt.seed, next, logs[0], samples,
                  rss);
  }
  const double rss_mib = rss.mib.load();
  rep.set("peak_rss_mb", rss_mib > 0 ? rss_mib : peak_rss_mib(), "MiB");
  const auto after = cache_counters(*svc);
  const ServiceTotals plain = merge(logs[0]);
  const ServiceTotals traced = merge(logs[1]);
  const ServiceTotals& t = opt.trace ? traced : plain;
  rep.attempted += plain.requests + traced.requests;
  rep.fail(plain.requests - plain.completed + traced.requests - traced.completed);
  const KindBest kb = kind_best(t);
  rep.set("requests_per_s", kb.requests_per_s, "1/s");
  rep.set("throughput_vps", kb.vectors_per_s, "vectors/s");
  rep.set("latency_p50_ms", 1e-3 * median(kb.latency_us), "ms");
  rep.set("latency_p99_ms", 1e-3 * quantile(kb.latency_us, 0.99), "ms");
  const double wall_rate = static_cast<double>(t.completed) / t.elapsed_s;
  rep.set("service.wall_requests_per_s", wall_rate, "1/s");
  rep.set("service.wall_latency_p50_us", median(t.latency_us), "us");
  rep.set("service.wall_latency_p99_us", quantile(t.latency_us, 0.99), "us");
  std::printf("service wall-clock: requests_per_s=%.1f latency_p50=%.1fus latency_p99=%.1fus "
              "(%zu requests)\n",
              wall_rate, median(t.latency_us), quantile(t.latency_us, 0.99), t.latency_us.size());
  if (opt.trace) {
    const double untraced = kind_best(plain).requests_per_s;
    rep.set("trace.overhead_share", (untraced - kb.requests_per_s) / untraced, "ratio");
  }
  const auto delta = [&](const char* name) { return after.at(name) - before.at(name); };
  const std::uint64_t hits = delta("service.cache.hit");
  const std::uint64_t lookups = hits + delta("service.cache.miss");
  rep.set("service.cache_hit_ratio", lookups ? static_cast<double>(hits) / lookups : 0, "ratio");
  rep.set("service.cache_lookups", static_cast<double>(lookups), "count");
  std::printf("service requests=%llu latency-samples=%zu elapsed=%.3fs cache lookups=%llu "
              "hits=%llu builds=%llu evictions=%llu\n",
              static_cast<unsigned long long>(t.requests), t.latency_us.size(), t.elapsed_s,
              static_cast<unsigned long long>(lookups), static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(delta("service.cache.build")),
              static_cast<unsigned long long>(delta("service.cache.evicted")));
  svc.reset();

  // Output check against the oracle (untimed).
  std::uint64_t checked = 0;
  {
    Tracer::Scope s(tracer, "oracle.check");
    std::map<std::size_t, std::unique_ptr<OracleSim>> oracles;
    bool injected = false;
    for (const std::vector<RowSample>& client_samples : samples) {
      for (const RowSample& smp : client_samples) {
        auto& oracle = oracles[smp.req.net];
        if (!oracle) oracle = std::make_unique<OracleSim>(*in.nets[smp.req.net]);
        ++rep.attempted;
        ++checked;
        const bool inject = opt.inject_mismatch && !injected;
        injected = true;
        rep.fail(oracle_check(*oracle, *in.nets[smp.req.net], in.vectors(smp.req), smp.row,
                              smp.got, inject));
      }
    }
  }

  // Exact counts: one client replays the first requests of client 0's
  // schedule on a fresh service, so cache builds and evictions repeat; every
  // kCountSampleEvery-th response is checked against the oracle as well.
  {
    SimService counter(cfg);
    const SessionId s = counter.open_session("count");
    for (std::size_t i = 0; i < kCountRequests; ++i) {
      const ServiceInputs::Req& r = in.schedule[0][i];
      const SimResponse resp =
          counter.run(s, SimRequest{.netlist = in.nets[r.net], .vectors = in.vectors(r)});
      ++rep.attempted;
      if (resp.outcome != Outcome::Completed) {
        rep.fail();
        continue;
      }
      if (i % kCountSampleEvery == 0) {
        OracleSim oracle(*in.nets[r.net]);
        const std::size_t outs = resp.batch.outputs.size();
        const std::size_t row = mix(opt.seed ^ 0xc0417, i) % resp.batch.vectors;
        ++rep.attempted;
        ++checked;
        rep.fail(oracle_check(oracle, *in.nets[r.net], in.vectors(r), row,
                              std::span<const Bit>(resp.batch.values).subspan(row * outs, outs),
                              false));
      }
    }
    const auto c = cache_counters(counter);
    rep.count("service.cache_builds", c.at("service.cache.build"));
    rep.count("service.cache_evictions", c.at("service.cache.evicted"));
  }
  rep.count("oracle.checked_rows", checked);
  // Base-circuit cells: 64 vectors, the median request size.
  std::vector<std::vector<Bit>> cell_streams;
  for (std::size_t b = 0; b < kBases; ++b) {
    cell_streams.push_back(
        random_stream(64, in.nets[b]->primary_inputs().size(), mix(opt.seed, 0xce11 + b)));
  }
  std::vector<SplitCell> split;
  for (std::size_t b = 0; b < kBases; ++b) {
    split.push_back(SplitCell{std::string("combined/") + kServiceCircuits[b], direct[b].get(),
                              cell_streams[b], 64, 1});
  }
  count_programs(split, rep);

  if (opt.trace) {
    Tracer::Scope s(tracer, "bench.layers");
    rep.set("service.queue_wait_p50_us", median(traced.queue_us), "us");
    rep.set("service.queue_wait_p99_us", quantile(traced.queue_us, 0.99), "us");
    rep.set("service.run_p50_us", median(traced.run_us), "us");
    rep.set("service.run_p99_us", quantile(traced.run_us, 0.99), "us");
    rep.set("service.overhead_p50_us", median(traced.overhead_us), "us");
    rep.set("service.overhead_p99_us", quantile(traced.overhead_us, 0.99), "us");
    rep.set("service.attempts_per_request",
            traced.requests ? static_cast<double>(traced.attempts) / traced.requests : 0,
            "ratio");
    std::printf("service-split check: queue + run <= latency on %llu of %llu requests%s\n",
                static_cast<unsigned long long>(traced.completed - traced.violations),
                static_cast<unsigned long long>(traced.completed),
                traced.violations ? "  VIOLATION" : "");
    // The same request stream replayed through direct 1-thread run_batch.
    std::vector<double> direct_us;
    {
      Tracer::Scope d(tracer, "service.direct");
      for (std::size_t i = 0; i < kCountRequests; ++i) {
        const ServiceInputs::Req& r = in.schedule[0][i];
        const Clock::time_point t0 = Clock::now();
        (void)direct[r.net]->run_batch(in.vectors(r), 1);
        direct_us.push_back(elapsed_us(t0, Clock::now()));
      }
    }
    rep.set("service.direct_us", median(direct_us), "us");
    std::vector<const Netlist*> circuits;
    for (std::size_t b = 0; b < kBases; ++b) circuits.push_back(in.nets[b].get());
    measure_analysis_and_compile(circuits, 32, tracer, rep);
    measure_core_split(split, 1, tracer, rep);
    double make_ms = 0;
    for (std::size_t b = 0; b < kBases; ++b) {
      make_ms += 1e-3 * best_us(5, [&] {
        (void)make_simulator(*in.nets[b], EngineKind::ParallelCombined);
      });
    }
    rep.set("core.make_simulator_ms", make_ms, "ms");
  }
  return rep;
}


}  // namespace perfbench
