// Multi-delay timing-model tests: the generalization of every algorithm
// from unit delay to arbitrary per-gate integer delays (the paper's stated
// future-work direction). All engines must still agree with the oracle.
#include <gtest/gtest.h>

#include <map>

#include "core/simulator.h"
#include "eventsim/event_sim.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "oracle/oracle.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

/// A -> [d=2] N0 -> [d=3] N1, plus A -> [d=1] M; OUT = AND(N1, M) [d=2].
Netlist delay_network() {
  Netlist nl("mdelay");
  const NetId a = nl.add_net("A");
  nl.mark_primary_input(a);
  const NetId n0 = nl.add_net("N0");
  nl.set_delay(nl.add_gate(GateType::Buf, {a}, n0), 2);
  const NetId n1 = nl.add_net("N1");
  nl.set_delay(nl.add_gate(GateType::Not, {n0}, n1), 3);
  const NetId m = nl.add_net("M");
  nl.add_gate(GateType::Buf, {a}, m);  // unit delay
  const NetId out = nl.add_net("OUT");
  nl.set_delay(nl.add_gate(GateType::And, {n1, m}, out), 2);
  nl.mark_primary_output(out);
  return nl;
}

TEST(MultiDelay, SetDelayValidation) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId o = nl.add_net("o");
  nl.mark_primary_input(a);
  const GateId g = nl.add_gate(GateType::Not, {a}, o);
  EXPECT_EQ(nl.delay(g), 1);
  nl.set_delay(g, 5);
  EXPECT_EQ(nl.delay(g), 5);
  EXPECT_THROW(nl.set_delay(g, 0), NetlistError);
  EXPECT_EQ(nl.max_delay(), 5);
  EXPECT_FALSE(nl.is_unit_delay());
}

TEST(MultiDelay, LevelsArePathDelaySums) {
  const Netlist nl = delay_network();
  const Levelization lv = levelize(nl);
  EXPECT_EQ(lv.level(*nl.find_net("N0")), 2);
  EXPECT_EQ(lv.level(*nl.find_net("N1")), 5);
  EXPECT_EQ(lv.level(*nl.find_net("M")), 1);
  EXPECT_EQ(lv.level(*nl.find_net("OUT")), 7);
  EXPECT_EQ(lv.minlevel(*nl.find_net("OUT")), 3);  // via M + AND(2)
  EXPECT_EQ(lv.depth, 7);
}

TEST(MultiDelay, PCSetsShiftByGateDelay) {
  const Netlist nl = delay_network();
  const Levelization lv = levelize(nl);
  const PCSets pc = compute_pc_sets(nl, lv);
  EXPECT_EQ(pc.of(*nl.find_net("N0")).to_vector(), (std::vector<int>{2}));
  EXPECT_EQ(pc.of(*nl.find_net("N1")).to_vector(), (std::vector<int>{5}));
  EXPECT_EQ(pc.of(*nl.find_net("OUT")).to_vector(), (std::vector<int>{3, 7}));
}

TEST(MultiDelay, OracleWaveformShape) {
  const Netlist nl = delay_network();
  OracleSim sim(nl);
  const NetId out = *nl.find_net("OUT");
  const Bit v0[] = {0};
  (void)sim.step(v0);  // settle: N1 = 1, M = 0, OUT = 0
  const Bit v1[] = {1};
  const Waveform wf = sim.step(v1);
  // M rises at 1, so OUT = N1(old 1) & M sees 1&1 at t=3; N1 falls at 5, so
  // OUT falls at 7: a pulse [3, 7).
  EXPECT_EQ(wf.at(out, 2), 0);
  EXPECT_EQ(wf.at(out, 3), 1);
  EXPECT_EQ(wf.at(out, 6), 1);
  EXPECT_EQ(wf.at(out, 7), 0);
  EXPECT_EQ(wf.change_times(out), (std::vector<int>{3, 7}));
}

TEST(MultiDelay, EventSimChangesMatchOracle) {
  RandomDagParams p;
  p.inputs = 10;
  p.outputs = 5;
  p.gates = 120;
  p.depth = 10;
  p.seed = 45;
  p.max_delay = 4;
  const Netlist nl = random_dag(p);
  EXPECT_FALSE(nl.is_unit_delay());
  OracleSim oracle(nl);
  EventSim2 ev(nl);
  RandomVectorSource src(nl.primary_inputs().size(), 6);
  std::vector<Bit> v(nl.primary_inputs().size());
  for (int i = 0; i < 15; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    ev.step(v, true);
    std::map<std::pair<std::uint32_t, int>, Bit> expect, got;
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      for (int t : wf.change_times(NetId{n})) expect[{n, t}] = wf.at(NetId{n}, t);
    }
    for (const auto& c : ev.last_changes()) {
      if (c.time) got[{c.net.value, c.time}] = c.value;
    }
    ASSERT_EQ(got, expect) << "vector " << i;
  }
}

struct MdCase {
  const char* label;
  ParallelOptions options;
};

// gtest would otherwise print the raw bytes of the struct (a string pointer
// and padding) into the discovered test name, which then differs per build.
void PrintTo(const MdCase& c, std::ostream* os) { *os << c.label; }

class MultiDelayParallel : public ::testing::TestWithParam<MdCase> {};

TEST_P(MultiDelayParallel, WaveformsMatchOracle) {
  for (auto [seed, max_delay] : {std::pair{1, 2}, {2, 3}, {3, 7}}) {
    RandomDagParams p;
    p.inputs = 10;
    p.outputs = 5;
    p.gates = 100;
    p.depth = 8;
    p.seed = static_cast<std::uint64_t>(seed);
    p.max_delay = max_delay;
    p.xor_fraction = 0.25;
    const Netlist nl = random_dag(p);
    OracleSim oracle(nl);
    ParallelSim<> sim(nl, GetParam().options);
    RandomVectorSource src(nl.primary_inputs().size(), 11);
    std::vector<Bit> v(nl.primary_inputs().size());
    for (int i = 0; i < 10; ++i) {
      src.next(v);
      const Waveform wf = oracle.step(v);
      sim.step(v);
      if (i == 0) continue;  // settle the construction state
      for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
        const int a = sim.compiled().plan.net_align[n];
        for (int t = std::max(a, 0); t <= oracle.depth(); ++t) {
          ASSERT_EQ(sim.value_at(NetId{n}, t), wf.at(NetId{n}, t))
              << nl.net(NetId{n}).name << " t=" << t << " max_delay=" << max_delay;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MultiDelayParallel,
    ::testing::Values(MdCase{"unopt", {false, ShiftElim::None, 32}},
                      MdCase{"trim", {true, ShiftElim::None, 32}},
                      MdCase{"pt", {false, ShiftElim::PathTracing, 32}},
                      MdCase{"pt_trim", {true, ShiftElim::PathTracing, 32}},
                      MdCase{"cb", {false, ShiftElim::CycleBreaking, 32}}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(MultiDelay, PCSetSimMatchesOracle) {
  RandomDagParams p;
  p.inputs = 9;
  p.outputs = 4;
  p.gates = 80;
  p.depth = 7;
  p.seed = 91;
  p.max_delay = 3;
  const Netlist nl = random_dag(p);
  std::vector<NetId> all;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) all.push_back(NetId{n});
  OracleSim oracle(nl);
  PCSetSim<> sim(nl, all);
  RandomVectorSource src(nl.primary_inputs().size(), 2);
  std::vector<Bit> v(nl.primary_inputs().size());
  src.next(v);
  (void)oracle.step(v);
  sim.step(v);
  for (int i = 0; i < 15; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      for (int t = 0; t <= oracle.depth(); ++t) {
        ASSERT_EQ(sim.value_at(NetId{n}, t), wf.at(NetId{n}, t))
            << nl.net(NetId{n}).name << " t=" << t;
      }
    }
  }
}

TEST(MultiDelay, AllEnginesAgreeOnFinals) {
  RandomDagParams p;
  p.inputs = 12;
  p.outputs = 6;
  p.gates = 150;
  p.depth = 9;
  p.seed = 33;
  p.max_delay = 5;
  const Netlist nl = random_dag(p);
  OracleSim oracle(nl);
  std::vector<std::unique_ptr<Simulator>> sims;
  for (EngineKind k :
       {EngineKind::Event2, EngineKind::Event3, EngineKind::PCSet,
        EngineKind::Parallel, EngineKind::ParallelTrimmed,
        EngineKind::ParallelPathTracing, EngineKind::ParallelCycleBreaking,
        EngineKind::ParallelCombined, EngineKind::ZeroDelayLcc}) {
    sims.push_back(make_simulator(nl, k));
  }
  RandomVectorSource src(nl.primary_inputs().size(), 13);
  std::vector<Bit> v(nl.primary_inputs().size());
  for (int i = 0; i < 20; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    for (auto& s : sims) {
      s->step(v);
      for (NetId po : nl.primary_outputs()) {
        ASSERT_EQ(wf.final_value(po), s->final_value(po))
            << engine_name(s->kind()) << " " << nl.net(po).name;
      }
    }
  }
}

TEST(MultiDelay, WiredNetsWithMixedDelays) {
  Netlist nl("wired_md");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  const NetId w = nl.add_net("w");
  nl.set_wired(w, WiredKind::Or);
  nl.set_delay(nl.add_gate(GateType::Buf, {a}, w), 3);
  nl.set_delay(nl.add_gate(GateType::Not, {b}, w), 1);
  nl.mark_primary_output(w);
  Netlist low = nl;
  lower_wired_nets(low);
  OracleSim oracle(low);
  ParallelSim<> sim(low);
  RandomVectorSource src(2, 21);
  std::vector<Bit> v(2);
  for (int i = 0; i < 16; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    if (i == 0) continue;
    const NetId wn = *low.find_net("w");
    for (int t = 0; t <= oracle.depth(); ++t) {
      ASSERT_EQ(sim.value_at(wn, t), wf.at(wn, t)) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace udsim
