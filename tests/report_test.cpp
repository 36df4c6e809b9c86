// The reporting subsystem end-to-end (obs/report.h, obs/bench_report.h):
// RunReport composition through the Simulator facade, and the
// bench-regression harness — collection, schema, exact-counter invariants,
// and the baseline checker's pass/drift/coverage/throughput verdicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/compile_budget.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "netlist/bench_io.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace udsim {
namespace {

std::vector<Bit> stream_for(const Netlist& nl, std::size_t vectors) {
  std::vector<Bit> bits(vectors * nl.primary_inputs().size());
  std::uint64_t x = 88172645463325252ull;
  for (auto& b : bits) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Bit>(x & 1);
  }
  return bits;
}

TEST(RunReport, ComposesCountersHistogramsProfileAndTrace) {
  const Netlist nl = make_iscas85_like("c432");
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  auto sim = make_simulator(nl, EngineKind::ParallelCombined, guard);
  (void)sim->run_batch(stream_for(nl, 32), 2);

  const JsonValue doc = JsonValue::parse(sim->report_to_json());
  EXPECT_EQ(doc.at("schema").string, "udsim-run-report-v1");
  EXPECT_EQ(doc.at("engine").string, engine_name(EngineKind::ParallelCombined));
  EXPECT_EQ(doc.at("circuit").string, nl.name());
  const JsonValue& counters = doc.at("counters");
  EXPECT_EQ(counters.at("sim.vectors").as_u64(), 32u);
  EXPECT_EQ(counters.at("exec.ops").as_u64(),
            counters.at("compile.ops").as_u64() * 32u);
  // Histograms: the per-shard latencies and the deterministic program-shape
  // distribution recorded at attach.
  const JsonValue& hists = doc.at("histograms");
  EXPECT_TRUE(hists.has("batch.shard.us"));
  EXPECT_TRUE(hists.has("exec.program_ops"));
  EXPECT_GE(hists.at("batch.shard.us").at("count").as_u64(), 1u);
  // Profile: levels plus unattributed sum to the total (spot-check ops).
  const JsonValue& profile = doc.at("profile");
  std::uint64_t level_ops = profile.at("unattributed").at("cost").at("ops").as_u64();
  for (const JsonValue& l : profile.at("levels").array) {
    level_ops += l.at("cost").at("ops").as_u64();
  }
  EXPECT_EQ(level_ops, profile.at("total").at("ops").as_u64());
  EXPECT_EQ(profile.at("total").at("ops").as_u64(),
            counters.at("compile.ops").as_u64());
  // Trace: compile spans and batch shards made it into the document.
  ASSERT_TRUE(doc.at("trace").is_array());
  EXPECT_FALSE(doc.at("trace").array.empty());
}

TEST(RunReport, DeterministicModeDropsTimingsAndTrace) {
  const Netlist nl = make_iscas85_like("c432");
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  auto sim = make_simulator(nl, EngineKind::ParallelCombined, guard);
  (void)sim->run_batch(stream_for(nl, 16), 2);

  const std::string j = sim->report_to_json({.include_timings = false});
  const JsonValue doc = JsonValue::parse(j);
  EXPECT_FALSE(doc.has("trace"));
  for (const auto& [name, value] : doc.at("counters").object) {
    EXPECT_EQ(name.find(".ns"), std::string::npos) << name;
  }
  EXPECT_FALSE(doc.at("histograms").has("batch.shard.us"));
  EXPECT_TRUE(doc.at("histograms").has("exec.program_ops"));
}

TEST(RunReport, CarriesDiagnostics) {
  const Netlist nl = make_iscas85_like("c432");
  MetricsRegistry reg;
  auto sim = make_simulator(nl, EngineKind::ZeroDelayLcc);
  sim->set_metrics(&reg);
  Diagnostics diag;
  diag.report(DiagCode::GapWordFallback, DiagSeverity::Note, "subject",
              "message text");
  const JsonValue doc = JsonValue::parse(report_to_json(*sim, &diag));
  ASSERT_TRUE(doc.has("diagnostics"));
  ASSERT_EQ(doc.at("diagnostics").array.size(), 1u);
  EXPECT_EQ(doc.at("diagnostics").array[0].at("subject").string, "subject");
}

TEST(RunReport, DetachedRegistryStillYieldsProfile) {
  const Netlist nl = make_iscas85_like("c432");
  auto sim = make_simulator(nl, EngineKind::ParallelCombined);
  const JsonValue doc = JsonValue::parse(sim->report_to_json());
  EXPECT_TRUE(doc.at("counters").object.empty());
  EXPECT_TRUE(doc.has("profile"));
  EXPECT_GT(doc.at("profile").at("total").at("ops").as_u64(), 0u);
}

class BenchReportFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kVectors = 16;

  static const BenchReport& report() {
    static const BenchReport r = [] {
      static const Netlist c432 = make_iscas85_like("c432");
      static const Netlist c17 = read_bench_file(UDSIM_DATA_DIR "/c17.bench");
      BenchRunConfig cfg;
      cfg.vectors = kVectors;
      cfg.trials = 1;
      cfg.batch_threads = 2;
      return run_bench_report({{"c432", &c432}, {"c17", &c17}}, cfg);
    }();
    return r;
  }
};

TEST_F(BenchReportFixture, CoversCircuitsTimesEnginesWithSchema) {
  const BenchReport& r = report();
  const std::size_t widths = supported_widths().size();
  ASSERT_EQ(r.circuits.size(), 2u);
  for (const BenchCircuitResult& c : r.circuits) {
    // 3 sequential engines + 1 batch row (ParallelCombined @ 2 threads) +
    // one lcc-packed row per available lane width (DESIGN.md §5j).
    ASSERT_EQ(c.engines.size(), 4u + widths);
    EXPECT_GT(c.gates, 0u);
    EXPECT_EQ(c.engines[0].engine, "zero-delay-lcc");
    EXPECT_EQ(c.engines[1].engine, "pcset");
    EXPECT_EQ(c.engines[2].engine, "parallel-combined");
    EXPECT_EQ(c.engines[3].engine, "parallel-combined");
    EXPECT_EQ(c.engines[3].threads, 2u);
    for (std::size_t i = 0; i < widths; ++i) {
      EXPECT_EQ(c.engines[4 + i].engine, "lcc-packed");
      EXPECT_EQ(c.engines[4 + i].word_bits, supported_widths()[i]);
    }
  }
  const JsonValue doc = JsonValue::parse(r.to_json());
  EXPECT_EQ(doc.at("schema").string, kBenchReportSchema);
  for (const char* key :
       {"vectors", "seed", "trials", "batch_threads", "word_bits", "circuits"}) {
    EXPECT_TRUE(doc.has(key)) << key;
  }
  const JsonValue& row = doc.at("circuits").array[0].at("engines").array[0];
  for (const char* key : {"engine", "threads", "word_bits", "seconds",
                          "vectors_per_sec", "us_per_vector", "exact"}) {
    EXPECT_TRUE(row.has(key)) << key;
  }
}

TEST_F(BenchReportFixture, ExactCountersObeyTheCompiledInvariants) {
  for (const BenchCircuitResult& c : report().circuits) {
    for (const BenchEngineResult& e : c.engines) {
      ASSERT_TRUE(e.exact.contains("exec.ops")) << c.circuit << "/" << e.engine;
      ASSERT_TRUE(e.exact.contains("compile.ops"));
      ASSERT_TRUE(e.exact.contains("sim.vectors"));
      // Zero-delay LCC's run_batch retires word_bits vectors per executor
      // pass (lanes as shards), so the pass count — not the vector count —
      // scales its dynamic cost.
      const bool lcc = e.engine == "zero-delay-lcc" || e.engine == "lcc-packed";
      const std::uint64_t lanes = lcc ? static_cast<std::uint64_t>(e.word_bits) : 1;
      EXPECT_EQ(e.exact.at("sim.vectors"), kVectors);
      EXPECT_EQ(e.exact.at("batch.lanes"), lanes) << c.circuit << "/" << e.engine;
      EXPECT_EQ(e.exact.at("batch.passes"), (kVectors + lanes - 1) / lanes)
          << c.circuit << "/" << e.engine << " w" << e.word_bits;
      // The compiled-simulation law: dynamic cost = static cost × passes.
      EXPECT_EQ(e.exact.at("exec.ops"),
                e.exact.at("compile.ops") * e.exact.at("batch.passes"))
          << c.circuit << "/" << e.engine << "@" << e.threads;
      EXPECT_TRUE(e.exact.contains("compile.peak_bytes"));
      EXPECT_GT(e.exact.at("compile.peak_bytes"), 0u);
    }
  }
}

TEST_F(BenchReportFixture, CheckFlagsDisappearedWidthRow) {
  // A previously-available lane width vanishing from the report is a
  // coverage loss, not a silent pass (acceptance: a baseline with a w256
  // row must fail --check on a build that lost the lane).
  BenchReport lost = report();
  const JsonValue baseline = JsonValue::parse(report().to_json());
  auto& engines = lost.circuits.front().engines;
  ASSERT_EQ(engines.back().engine, "lcc-packed");
  engines.pop_back();  // drop the widest packed row
  const auto violations = check_bench_report(lost, baseline);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("coverage"), std::string::npos);
}

TEST_F(BenchReportFixture, CheckPassesAgainstItsOwnSerialization) {
  const BenchReport& r = report();
  const JsonValue baseline = JsonValue::parse(r.to_json());
  EXPECT_TRUE(check_bench_report(r, baseline).empty());
}

TEST_F(BenchReportFixture, CheckFlagsInjectedCounterDrift) {
  BenchReport drifted = report();  // copy
  const JsonValue baseline = JsonValue::parse(report().to_json());
  drifted.circuits.front().engines.front().exact["exec.ops"] += 1;
  const auto violations = check_bench_report(drifted, baseline);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("exec.ops"), std::string::npos);
  EXPECT_NE(violations[0].find("drifted"), std::string::npos);
}

TEST_F(BenchReportFixture, CheckFlagsCoverageLossAndGeometryMismatch) {
  BenchReport shrunk = report();
  const JsonValue baseline = JsonValue::parse(report().to_json());
  shrunk.circuits.pop_back();
  const auto violations = check_bench_report(shrunk, baseline);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("coverage"), std::string::npos);

  BenchReport regeo = report();
  regeo.vectors += 1;
  const auto geo = check_bench_report(regeo, baseline);
  ASSERT_EQ(geo.size(), 1u);
  EXPECT_NE(geo[0].find("geometry"), std::string::npos);
}

TEST_F(BenchReportFixture, CheckFlagsThroughputRegressionOnlyWhenEnabled) {
  const BenchReport& r = report();
  JsonValue baseline = JsonValue::parse(r.to_json());
  // Pretend the baseline machine was 1000x faster than this run.
  for (auto& [ckey, circuit] : baseline.object) {
    if (ckey != "circuits") continue;
    for (JsonValue& c : circuit.array) {
      for (auto& [ekey, engines] : c.object) {
        if (ekey != "engines") continue;
        for (JsonValue& e : engines.array) {
          for (auto& [key, value] : e.object) {
            if (key == "vectors_per_sec") {
              value = JsonValue::make_double(value.as_double() * 1000.0 + 1e9);
            }
          }
        }
      }
    }
  }
  const auto violations = check_bench_report(r, baseline);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("throughput"), std::string::npos);
  EXPECT_TRUE(
      check_bench_report(r, baseline, {.check_throughput = false}).empty());
}

TEST(BenchReportCheck, RejectsForeignSchema) {
  const BenchReport empty;
  const JsonValue bad = JsonValue::parse(R"({"schema": "something-else"})");
  const auto violations = check_bench_report(empty, bad);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("schema"), std::string::npos);
  const auto not_report = check_bench_report(empty, JsonValue::parse("[]"));
  ASSERT_EQ(not_report.size(), 1u);
}

}  // namespace
}  // namespace udsim
