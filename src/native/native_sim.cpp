#include "native/native_sim.h"

#include <stdexcept>
#include <string>

#include "obs/profiler.h"

namespace udsim {

namespace {

ParallelOptions native_base_options() {
  // The facade's native engine compiles its base program with the paper's
  // best combination (path tracing + trimming), like EngineKind::ParallelCombined.
  ParallelOptions o;
  o.trimming = true;
  o.shift_elim = ShiftElim::PathTracing;
  o.word_bits = 32;
  return o;
}

/// Engine label of the base program in the cache key.
constexpr const char* kBaseLabel = "parallel-combined";

}  // namespace

NativeSimulator::NativeSimulator(const Netlist& nl, const NativeOptions& opts,
                                 const CompileGuard& guard)
    : nl_(nl),
      compiled_(compile_parallel(nl, native_base_options(), guard)),
      lane_class_(udsim::lane_class(compiled_.program)) {
  module_ = std::make_unique<NativeModule>(compiled_.program, kBaseLabel, opts,
                                           guard.metrics);
  arena_.resize(compiled_.program.arena_words);
  module_->init(arena_.data());
}

NativeSimulator::~NativeSimulator() = default;

void NativeSimulator::set_metrics(MetricsRegistry* reg) noexcept {
  metrics_ = reg;
  exec_ = ExecCounters::attach(reg, compiled_.program, pass_extras());
}

void NativeSimulator::set_cancel(const CancelToken* token) noexcept {
  poll_ = CancelPoll(token);
}

void NativeSimulator::step(std::span<const Bit> pi_values) {
  const StopReason r = poll_.poll();
  if (r != StopReason::None) throw Cancelled(r, "native.step", passes_ + 1);
  in_.assign(nl_.primary_inputs().size(), 0);
  for (std::size_t i = 0; i < in_.size(); ++i) in_[i] = pi_values[i] & 1;
  module_->step(arena_.data(), in_.data());
  ++passes_;
  exec_.on_passes(1);
}

Bit NativeSimulator::final_value(NetId n) const {
  const auto pr = compiled_.final_probe(n);
  return static_cast<Bit>((arena_.at(pr.word) >> pr.bit) & 1u);
}

std::vector<ArenaProbe> NativeSimulator::output_probes() const {
  std::vector<ArenaProbe> probes;
  probes.reserve(nl_.primary_outputs().size());
  for (NetId po : nl_.primary_outputs()) {
    const auto pr = compiled_.final_probe(po);
    probes.push_back({pr.word, pr.bit});
  }
  return probes;
}

ProgramProfile NativeSimulator::program_profile(std::size_t top_k) const {
  return profile_program(compiled_.program, attribution_for(compiled_, nl_),
                         top_k);
}

BatchResult NativeSimulator::run_batch(std::span<const Bit> vectors,
                                       const BatchRunOptions& opts) const {
  // Each shard steps a fresh arena with module_; arena_ is untouched.
  return run_compiled_batch(*this, vectors, opts, poll_.token());
}

std::vector<std::pair<std::string, std::uint64_t>> NativeSimulator::pass_extras()
    const {
  return {{"exec.trimmed_stores_skipped", compiled_.stats.suppressed_stores},
          {"exec.gap_words_filled", compiled_.trim.gap_words}};
}

void NativeSimulator::run_stream(std::span<const std::uint32_t> in,
                                 std::uint64_t n_vectors) {
  if (in.size() < n_vectors * compiled_.program.input_words) {
    throw std::invalid_argument("run_stream: input span shorter than "
                                "n_vectors × input_words");
  }
  const StopReason r = poll_.poll();
  if (r != StopReason::None) throw Cancelled(r, "native.run", passes_ + 1);
  module_->run(arena_.data(), in.data(), n_vectors);
  passes_ += n_vectors;
  exec_.on_passes(n_vectors);
}

}  // namespace udsim
