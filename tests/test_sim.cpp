#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "base/rng.h"
#include "fsm/compile.h"
#include "fsm/extract.h"
#include "rtlil/design.h"
#include "sim/fault.h"
#include "sim/netlist_sim.h"
#include "sim/vcd.h"
#include "synth/lower.h"
#include "synth/opt.h"
#include "test_helpers.h"

namespace scfi::sim {
namespace {

using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;

TEST(Simulator, CombinationalEval) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 4);
  rtlil::Wire* b = m->add_input("b", 4);
  rtlil::Wire* y = m->add_output("y", 4);
  m->drive(SigSpec(y), m->make_xor(SigSpec(a), SigSpec(b)));
  Simulator s(*m);
  s.set_input("a", 0b1100);
  s.set_input("b", 0b1010);
  s.eval();
  EXPECT_EQ(s.get("y"), 0b0110u);
}

TEST(Simulator, DffLatchesOnStep) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* q = m->add_output("q", 1);
  m->drive(SigSpec(q), m->make_dff(SigSpec(a), Const::from_uint(0, 1)));
  Simulator s(*m);
  s.set_input("a", 1);
  s.eval();
  EXPECT_EQ(s.get("q"), 0u);  // not latched yet
  s.step();
  EXPECT_EQ(s.get("q"), 1u);
  s.set_input("a", 0);
  s.step();
  EXPECT_EQ(s.get("q"), 0u);
}

TEST(Simulator, ResetAppliesResetValues) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* q = m->add_output("q", 4);
  const SigSpec reg = m->make_dff(SigSpec(q).extract(0, 4), Const::from_uint(0b1001, 4));
  m->drive(SigSpec(q), reg);
  Simulator s(*m);
  EXPECT_EQ(s.get("q"), 0b1001u);
}

TEST(Simulator, CounterCounts) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* q = m->add_output("q", 3);
  rtlil::Wire* state = m->add_wire("cnt", 3);
  // cnt <= cnt + 1 (ripple).
  SigSpec sum;
  SigSpec carry(SigBit(true));
  for (int i = 0; i < 3; ++i) {
    sum.append(m->make_xor(SigSpec(state).extract(i, 1), carry));
    if (i < 2) carry = m->make_and(SigSpec(state).extract(i, 1), carry);
  }
  rtlil::Cell* ff = m->add_cell("ff", rtlil::CellType::kDff);
  ff->set_port("D", sum);
  ff->set_port("Q", SigSpec(state));
  ff->set_reset_value(Const::from_uint(0, 3));
  m->drive(SigSpec(q), SigSpec(state));
  Simulator s(*m);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s.get("q"), i % 8);
    s.step();
  }
}

TEST(Simulator, TransientFaultLastsOneCycle) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  const SigSpec n = m->make_not(SigSpec(a), "inv");
  m->drive(SigSpec(y), n);
  Simulator s(*m);
  s.set_input("a", 0);
  s.eval();
  EXPECT_EQ(s.get("y"), 1u);
  s.inject(n.bit(0), FaultKind::kTransientFlip);
  s.eval();
  EXPECT_EQ(s.get("y"), 0u);  // flipped
  s.step();                    // transient expires
  EXPECT_EQ(s.get("y"), 1u);
}

TEST(Simulator, StuckAtPersists) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  m->drive(SigSpec(y), m->make_buf(SigSpec(a)));
  Simulator s(*m);
  s.set_input("a", 1);
  s.inject(SigBit(a, 0), FaultKind::kStuckAt0);
  s.step();
  EXPECT_EQ(s.get("y"), 0u);
  s.step();
  EXPECT_EQ(s.get("y"), 0u);
  s.clear_fault(SigBit(a, 0));
  s.eval();
  EXPECT_EQ(s.get("y"), 1u);
}

TEST(Simulator, RegisterFaultCorruptsState) {
  Design d;
  const fsm::Fsm f = test::toggle_fsm();
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  Simulator s(*c.module);
  EXPECT_EQ(s.get(c.state_wire), 0u);
  s.set_register(c.state_wire, 1);
  EXPECT_EQ(s.get(c.state_wire), 1u);
}

TEST(Simulator, WordAndGateLevelAgree) {
  Design d;
  const fsm::Fsm f = test::paper_fsm();
  const fsm::CompiledFsm word = fsm::compile_unprotected(f, d, {.module_name = "w", .state_codes = {}, .state_width = 0});
  const fsm::CompiledFsm gate = fsm::compile_unprotected(f, d, {.module_name = "g", .state_codes = {}, .state_width = 0});
  synth::lower_to_gates(*gate.module);
  synth::optimize(*gate.module);
  Simulator sw(*word.module);
  Simulator sg(*gate.module);
  Rng rng(77);
  for (int t = 0; t < 300; ++t) {
    const std::uint64_t bits = rng.next();
    for (std::size_t i = 0; i < f.inputs.size(); ++i) {
      sw.set_input(f.inputs[i], (bits >> i) & 1);
      sg.set_input(f.inputs[i], (bits >> i) & 1);
    }
    sw.step();
    sg.step();
    EXPECT_EQ(sw.get(word.state_wire), sg.get(gate.state_wire));
  }
}

TEST(FaultSites, ClassesAreComplete) {
  Design d;
  const fsm::Fsm f = test::paper_fsm();
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  const auto sites = enumerate_fault_sites(*c.module, c.state_wire);
  int inputs = 0;
  int regs = 0;
  int logic = 0;
  for (const auto& s : sites) {
    switch (s.target) {
      case FaultTarget::kControlInputs: ++inputs; break;
      case FaultTarget::kStateRegister: ++regs; break;
      default: ++logic; break;
    }
  }
  EXPECT_EQ(inputs, f.num_inputs());
  EXPECT_EQ(regs, c.state_width);
  EXPECT_GT(logic, 0);
  EXPECT_EQ(filter_sites(sites, FaultTarget::kStateRegister).size(),
            static_cast<std::size_t>(regs));
  EXPECT_EQ(filter_sites(sites, FaultTarget::kAny).size(), sites.size());
}

TEST(Extract, RecoversToggle) {
  Design d;
  const fsm::Fsm f = test::toggle_fsm();
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  const fsm::Fsm g = fsm::extract_fsm(*c.module, c.state_wire).fsm;
  EXPECT_EQ(g.num_states(), 2);
  // Behavioural equivalence over a walk.
  int sf = f.reset_state;
  int sg = g.reset_state;
  for (int t = 0; t < 20; ++t) {
    const std::vector<bool> in{t % 3 != 0};
    sf = f.step_raw(sf, in).first;
    sg = g.step_raw(sg, in).first;
    // States correspond via their codes: compiled code == index for binary.
    EXPECT_EQ(g.states[static_cast<std::size_t>(sg)], "s" + std::to_string(sf));
  }
}

TEST(Extract, RecoversPaperFsmBehaviour) {
  Design d;
  const fsm::Fsm f = test::paper_fsm();
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  const fsm::Fsm g = fsm::extract_fsm(*c.module, c.state_wire).fsm;
  EXPECT_EQ(g.num_states(), f.num_states());
  // The named-wire entry keeps the module's whole port interface.
  EXPECT_EQ(g.inputs, f.inputs);
  EXPECT_EQ(g.outputs, f.outputs);
  Rng rng(5);
  int sf = f.reset_state;
  int sg = g.reset_state;
  for (int t = 0; t < 500; ++t) {
    std::vector<bool> in;
    for (int i = 0; i < f.num_inputs(); ++i) in.push_back(rng.chance(0.5));
    sf = f.step_raw(sf, in).first;
    sg = g.step_raw(sg, in).first;
    EXPECT_EQ(g.states[static_cast<std::size_t>(sg)], "s" + std::to_string(sf));
  }
}

TEST(Vcd, EmitsDocument) {
  Design d;
  const fsm::Fsm f = test::toggle_fsm();
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  Simulator s(*c.module);
  VcdWriter vcd(s, {"t", "q"});
  for (int t = 0; t < 4; ++t) {
    s.set_input("t", t % 2);
    s.step();
    vcd.sample(static_cast<std::uint64_t>(t));
  }
  std::ostringstream out;
  vcd.write(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(doc.find("#0"), std::string::npos);
}

}  // namespace
}  // namespace scfi::sim
