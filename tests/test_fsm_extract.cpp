// FSM extraction from netlists: candidate detection edge cases, encoding
// classification, and the acceptance gate — every zoo FSM, emitted through
// the Verilog writer and read back, must be recovered transition-equivalent
// to the original (checked by an exhaustive product-state bisimulation of
// the original and the extracted-then-recompiled machines).
#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backends/verilog.h"
#include "base/error.h"
#include "frontends/verilog_parse.h"
#include "fsm/compile.h"
#include "fsm/extract.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/netlist_sim.h"
#include "test_helpers.h"

namespace scfi::fsm {
namespace {

using rtlil::Const;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::Wire;

/// q <= sel ? ~q : q — a 1-bit self-feeding toggle register named `q_name`,
/// with its value exported on output `out_name`.
void add_toggle(rtlil::Module& m, const std::string& q_name, const std::string& sel_name,
                const std::string& out_name) {
  Wire* sel = m.add_input(sel_name, 1);
  Wire* q = m.add_wire(q_name, 1);
  const SigSpec next = m.make_mux(SigSpec(sel), SigSpec(q), m.make_not(SigSpec(q)));
  rtlil::Cell* ff = m.add_cell(m.uniquify(q_name + "_ff"), rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(q));
  ff->set_reset_value(Const(std::vector<bool>{false}));
  Wire* out = m.add_output(out_name, 1);
  m.drive(SigSpec(out), SigSpec(q));
}

TEST(FsmExtract, PipelineWithoutFeedbackHasNoFsm) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("pipe");
  Wire* d = m.add_input("d", 4);
  const SigSpec q1 = m.make_dff(SigSpec(d), Const(std::vector<bool>(4, false)), "q1");
  const SigSpec q2 = m.make_dff(q1, Const(std::vector<bool>(4, false)), "q2");
  Wire* y = m.add_output("y", 4);
  m.drive(SigSpec(y), q2);
  rtlil::validate_module(m);

  EXPECT_TRUE(find_state_registers(m).empty());
  EXPECT_TRUE(extract_fsms(m).empty());  // empty, not an error
}

TEST(FsmExtract, ToggleRegisterIsRecoveredAsTwoStateBinaryFsm) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("toggler");
  add_toggle(m, "q", "t", "o");
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> machines = extract_fsms(m);
  ASSERT_EQ(machines.size(), 1u);
  const ExtractedFsm& fsm = machines.at(0);
  EXPECT_EQ(fsm.state_wire, "q");
  EXPECT_EQ(fsm.encoding, StateEncoding::kBinary);
  EXPECT_EQ(fsm.fsm.num_states(), 2);
  EXPECT_EQ(fsm.state_codes, (std::vector<std::uint64_t>{0, 1}));
  ASSERT_EQ(fsm.fsm.inputs.size(), 1u);
  EXPECT_EQ(fsm.fsm.inputs.at(0), "t");
  ASSERT_EQ(fsm.fsm.outputs.size(), 1u);
  EXPECT_EQ(fsm.fsm.outputs.at(0), "o");
}

TEST(FsmExtract, MultipleCandidateRegistersAreAllReported) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("two_togglers");
  add_toggle(m, "qa", "ta", "oa");
  add_toggle(m, "qb", "tb", "ob");
  rtlil::validate_module(m);

  const std::vector<std::string> regs = find_state_registers(m);
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs.at(0), "qa");
  EXPECT_EQ(regs.at(1), "qb");
  const std::vector<ExtractedFsm> machines = extract_fsms(m);
  ASSERT_EQ(machines.size(), 2u);
  EXPECT_EQ(machines.at(0).state_wire, "qa");
  EXPECT_EQ(machines.at(1).state_wire, "qb");
  // Each machine only sees its own cone-relevant input.
  EXPECT_EQ(machines.at(0).fsm.inputs, (std::vector<std::string>{"ta"}));
  EXPECT_EQ(machines.at(1).fsm.inputs, (std::vector<std::string>{"tb"}));
}

TEST(FsmExtract, NamedStateWireMustBeAStateRegister) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("toggler");
  add_toggle(m, "q", "tick", "o");
  rtlil::validate_module(m);

  EXPECT_EQ(extract_fsm(m, "q").state_codes, (std::vector<std::uint64_t>{0, 1}));
  // A missing wire and a wire no flip-flop drives are refused by name.
  for (const auto& [wire, reason] : {std::pair{"nope", "toggler has no state wire nope"},
                                     {"tick", "toggler.tick is not a self-feeding"}}) {
    try {
      extract_fsm(m, wire);
      ADD_FAILURE() << wire << " accepted as a state register";
    } catch (const ScfiError& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
    }
  }
}

TEST(FsmExtract, OneHotRingCounterIsClassifiedOneHot) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("ring");
  Wire* s = m.add_wire("s", 3);
  SigSpec next;  // rotate left: next = {s[1], s[0], s[2]} (LSB first)
  next.append(SigBit(s, 2));
  next.append(SigBit(s, 0));
  next.append(SigBit(s, 1));
  rtlil::Cell* ff = m.add_cell("ring_ff", rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(s));
  ff->set_reset_value(Const(std::vector<bool>{true, false, false}));
  Wire* y = m.add_output("y", 3);
  m.drive(SigSpec(y), SigSpec(s));
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> machines = extract_fsms(m);
  ASSERT_EQ(machines.size(), 1u);
  const ExtractedFsm& fsm = machines.at(0);
  EXPECT_EQ(fsm.encoding, StateEncoding::kOneHot);
  EXPECT_EQ(fsm.fsm.num_states(), 3);
  EXPECT_EQ(fsm.state_codes, (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_TRUE(fsm.fsm.inputs.empty());
}

TEST(FsmExtract, ConeRelevantInputBoundIsEnforced) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("wide");
  Wire* x = m.add_input("x", 4);
  Wire* q = m.add_wire("q", 1);
  SigSpec all = SigSpec(x);
  all.append(SigBit(q, 0));
  const SigSpec next = m.make_reduce_xor(all);
  rtlil::Cell* ff = m.add_cell("q_ff", rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(q));
  ff->set_reset_value(Const(std::vector<bool>{false}));
  Wire* y = m.add_output("y", 1);
  m.drive(SigSpec(y), SigSpec(q));
  rtlil::validate_module(m);

  // All 4 bits of x are cone-relevant: a bound of 3 must refuse loudly, the
  // exact bound must succeed.
  ExtractOptions tight;
  tight.max_inputs = 3;
  EXPECT_THROW(extract_fsms(m, tight), ScfiError);
  ExtractOptions exact;
  exact.max_inputs = 4;
  EXPECT_EQ(extract_fsms(m, exact).size(), 1u);
}

// --- zoo equivalence (the acceptance gate) ----------------------------------

/// Exhaustive product-state bisimulation: drives both compiled machines
/// through every reachable (state_a, state_b) pair under every combination
/// of the extracted machine's inputs and requires identical Mealy outputs.
/// Inputs/outputs are matched by name (the extracted machine's are a subset
/// of the original's; the rest are held at 0, matching extraction).
/// `dropped_outputs` exist only in the original — extraction skipped them
/// because their cones hold no state, so they must be state-independent:
/// their value may depend on the input combo but never on the state pair.
void expect_bisimilar(const rtlil::Module& mod_a, const std::string& state_a,
                      const rtlil::Module& mod_b, const std::string& state_b,
                      const std::vector<std::string>& inputs,
                      const std::vector<std::string>& outputs,
                      const std::vector<std::string>& dropped_outputs, int expected_states) {
  sim::Simulator sim_a(mod_a);
  sim::Simulator sim_b(mod_b);
  std::vector<sim::Simulator::WireHandle> in_a, in_b;
  for (const std::string& name : inputs) {
    in_a.push_back(sim_a.input_handle(name));
    in_b.push_back(sim_b.input_handle(name));
  }
  const sim::Simulator::WireHandle st_a = sim_a.probe(state_a);
  const sim::Simulator::WireHandle st_b = sim_b.probe(state_b);
  const int n = static_cast<int>(inputs.size());
  ASSERT_LE(n, 12) << "input space too large for the exhaustive check";

  sim_a.reset();  // zeroes non-extracted inputs of the original for good
  sim_b.reset();
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  const Pair start{sim_a.get(st_a), sim_b.get(st_b)};
  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> dropped_by_combo;
  std::set<Pair> seen{start};
  std::queue<Pair> queue;
  queue.push(start);
  while (!queue.empty()) {
    const Pair pair = queue.front();
    queue.pop();
    for (std::uint64_t combo = 0; combo < (1ULL << n); ++combo) {
      for (int i = 0; i < n; ++i) {
        sim_a.set_input(in_a[static_cast<std::size_t>(i)], (combo >> i) & 1);
        sim_b.set_input(in_b[static_cast<std::size_t>(i)], (combo >> i) & 1);
      }
      sim_a.set_register(st_a, pair.first);
      sim_b.set_register(st_b, pair.second);
      sim_a.eval();
      sim_b.eval();
      for (const std::string& name : outputs) {
        ASSERT_EQ(sim_a.get(name), sim_b.get(name))
            << "output " << name << " diverges in product state (" << pair.first << ", "
            << pair.second << ") under input combo " << combo;
      }
      for (const std::string& name : dropped_outputs) {
        const std::uint64_t value = sim_a.get(name);
        const auto [it, fresh] = dropped_by_combo[name].emplace(combo, value);
        ASSERT_EQ(it->second, value)
            << "dropped output " << name << " depends on the state (product state ("
            << pair.first << ", " << pair.second << "), combo " << combo
            << ") — extraction should have captured it";
      }
      sim_a.step();
      sim_b.step();
      const Pair next{sim_a.get(st_a), sim_b.get(st_b)};
      if (seen.insert(next).second) queue.push(next);
    }
  }
  // Equivalent deterministic machines with every state reachable pair up
  // one-to-one: the product reaches exactly as many pairs as states.
  EXPECT_EQ(static_cast<int>(seen.size()), expected_states);
}

/// Compiles `fsm`, writes it as Verilog, reads it back, extracts the FSM
/// from the reparsed netlist, recompiles the extraction, and bisimulates it
/// against the original compiled module.
void expect_extraction_equivalent(const Fsm& original) {
  rtlil::Design design_a;
  const CompiledFsm compiled = compile_unprotected(original, design_a);

  std::ostringstream verilog;
  backends::write_verilog(*compiled.module, verilog);
  rtlil::Design design_b;
  std::vector<rtlil::Module*> mods =
      frontends::read_verilog(verilog.str(), design_b, original.name + ".v");
  ASSERT_EQ(mods.size(), 1u);

  const std::vector<ExtractedFsm> machines = extract_fsms(*mods.at(0));
  ASSERT_EQ(machines.size(), 1u) << original.name;
  const ExtractedFsm& extracted = machines.at(0);
  EXPECT_EQ(extracted.state_wire, compiled.state_wire);
  EXPECT_EQ(extracted.encoding, StateEncoding::kBinary);
  EXPECT_EQ(extracted.fsm.num_states(), original.num_states());
  // Extraction keeps the original 1-bit port names but only the
  // cone-relevant subset: an input that reaches no state or captured-output
  // cone, or an output whose cone holds no state, is rightly dropped.
  const auto is_ordered_subset = [](const std::vector<std::string>& sub,
                                    const std::vector<std::string>& full) {
    std::size_t j = 0;
    for (const std::string& name : sub) {
      while (j < full.size() && full[j] != name) ++j;
      if (j++ >= full.size()) return false;
    }
    return true;
  };
  ASSERT_TRUE(is_ordered_subset(extracted.fsm.inputs, original.inputs)) << original.name;
  ASSERT_TRUE(is_ordered_subset(extracted.fsm.outputs, original.outputs)) << original.name;
  std::vector<std::string> dropped_outputs;
  for (const std::string& name : original.outputs) {
    if (std::find(extracted.fsm.outputs.begin(), extracted.fsm.outputs.end(), name) ==
        extracted.fsm.outputs.end()) {
      dropped_outputs.push_back(name);
    }
  }

  rtlil::Design design_c;
  const CompiledFsm recompiled = compile_unprotected(extracted.fsm, design_c);
  expect_bisimilar(*compiled.module, compiled.state_wire, *recompiled.module,
                   recompiled.state_wire, extracted.fsm.inputs, extracted.fsm.outputs,
                   dropped_outputs, original.num_states());
}

TEST(FsmExtract, PaperFsmSurvivesWriterAndExtraction) {
  expect_extraction_equivalent(test::paper_fsm());
}

TEST(FsmExtract, SynfiFsmSurvivesWriterAndExtraction) {
  expect_extraction_equivalent(test::synfi_fsm());
}

TEST(FsmExtract, ZooFsmsSurviveWriterAndExtraction) {
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    SCOPED_TRACE(entry.name);
    expect_extraction_equivalent(entry.fsm);
  }
}

}  // namespace
}  // namespace scfi::fsm
