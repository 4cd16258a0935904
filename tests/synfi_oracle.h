// Test-only reference for the SYNFI SAT back-end: a freshly built fault
// miter per (site, edge) query, assembled from the public sat:: API alone
// (CnfCopy, differ, member_of, CardinalityCounter). It shares no helper with
// the engine — region enumeration, interface binding and the post-cycle
// alert copy are all re-stated here from their documented meaning — so a
// report that matches it checks the engine's incremental, selector-gated
// shards rather than re-deriving them. Slow by design: one solver per query.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/compile.h"
#include "fsm/fsm.h"
#include "rtlil/cell.h"
#include "rtlil/module.h"
#include "rtlil/validate.h"
#include "sat/cnf.h"
#include "sat/miter.h"
#include "sat/solver.h"
#include "synfi/synfi.h"

namespace scfi::test {
namespace oracle_detail {

/// The fault region of `config`: the state register bits for
/// kStateRegister; otherwise every prefix-matching wire bit driven by a
/// combinational cell, plus the prefix-matching input bits for
/// kControlInputs (inputs only) or kAny with include_inputs.
inline std::vector<rtlil::SigBit> region_sites(const fsm::CompiledFsm& variant,
                                               const synfi::SynfiConfig& config) {
  const rtlil::Module& module = *variant.module;
  std::vector<rtlil::SigBit> sites;
  if (config.target == sim::FaultTarget::kStateRegister) {
    const rtlil::Wire* state = module.wire(variant.state_wire);
    for (int i = 0; i < state->width(); ++i) sites.emplace_back(state, i);
    return sites;
  }
  const bool inputs = config.target == sim::FaultTarget::kControlInputs ||
                      (config.target == sim::FaultTarget::kAny && config.include_inputs);
  const rtlil::NetlistIndex index(module);
  for (const rtlil::Wire* wire : module.wires()) {
    if (wire->name().compare(0, config.wire_prefix.size(), config.wire_prefix) != 0) continue;
    for (int i = 0; i < wire->width(); ++i) {
      const rtlil::SigBit bit(wire, i);
      if (wire->is_input()) {
        if (inputs) sites.push_back(bit);
      } else if (config.target != sim::FaultTarget::kControlInputs) {
        const rtlil::Cell* driver = index.driver(bit);
        if (driver != nullptr && !rtlil::is_ff(driver->type())) sites.push_back(bit);
      }
    }
  }
  return sites;
}

inline sat::CnfFaultKind cnf_kind(sim::FaultKind kind) {
  if (kind == sim::FaultKind::kStuckAt0) return sat::CnfFaultKind::kStuckAt0;
  if (kind == sim::FaultKind::kStuckAt1) return sat::CnfFaultKind::kStuckAt1;
  return sat::CnfFaultKind::kFlip;
}

/// Literals forcing `vars` (LSB first) to `value`.
inline std::vector<sat::Lit> equal_lits(const std::vector<int>& vars, std::uint64_t value) {
  std::vector<sat::Lit> lits;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    lits.push_back(((value >> i) & 1) ? vars[i] : -vars[i]);
  }
  return lits;
}

struct Query {
  bool exploitable = false;
  bool stall = false;
};

/// One rebuilt miter: "is there an undetected, valid-but-wrong next state
/// for edge (from_code, code) under an exactly-k fault set containing
/// sites[queried]?" The other k-1 faults land on gated region sites under an
/// exactly-(k-1) counter asserted as units.
inline Query solve_one(const fsm::CompiledFsm& variant, const synfi::SynfiConfig& config,
                       const std::vector<rtlil::SigBit>& sites, std::size_t queried,
                       std::uint64_t from_code, std::uint64_t code) {
  const rtlil::Module& module = *variant.module;
  const rtlil::Wire* symbol = module.wire(variant.symbol_input_wire);
  const rtlil::Wire* state = module.wire(variant.state_wire);
  sat::Solver solver;

  // Golden and faulty copies share the symbol input and the current state.
  std::unordered_map<rtlil::SigBit, int> shared;
  std::vector<int> symbol_vars;
  std::vector<int> state_vars;
  for (int i = 0; i < symbol->width(); ++i) {
    symbol_vars.push_back(solver.new_var());
    shared.emplace(rtlil::SigBit(symbol, i), symbol_vars.back());
  }
  for (int i = 0; i < state->width(); ++i) {
    state_vars.push_back(solver.new_var());
    shared.emplace(rtlil::SigBit(state, i), state_vars.back());
  }
  const sat::CnfCopy golden(solver, module, shared);

  std::vector<sat::CnfFault> faults;
  std::vector<sat::Lit> others;
  for (std::size_t t = 0; t < sites.size(); ++t) {
    if (t == queried) {
      faults.push_back(sat::CnfFault{sites[t], cnf_kind(config.kind)});
    } else if (config.faults_k > 1) {
      others.push_back(solver.new_var());
      faults.push_back(sat::CnfFault{sites[t], cnf_kind(config.kind), others.back()});
    }
  }
  if (config.faults_k > 1) {
    const sat::CardinalityCounter counter(solver, others, config.faults_k - 1);
    for (const sat::Lit lit : counter.assume_exactly(config.faults_k - 1)) solver.add_unit(lit);
  }
  const sat::CnfCopy faulty(solver, module, shared, faults);

  for (const sat::Lit lit : equal_lits(state_vars, from_code)) solver.add_unit(lit);
  if (!config.free_symbol) {
    for (const sat::Lit lit : equal_lits(symbol_vars, code)) solver.add_unit(lit);
  }

  if (!variant.alert_wire.empty()) {
    solver.add_unit(-faulty.wire_vars(variant.alert_wire)[0]);
    // The alert must stay low one cycle later too: a copy clocked on the
    // faulty latched state, the symbol held, and stuck-at faults persisting
    // across the edge (transient flips do not).
    std::unordered_map<rtlil::SigBit, int> latched;
    for (int i = 0; i < symbol->width(); ++i) {
      latched.emplace(rtlil::SigBit(symbol, i), symbol_vars[static_cast<std::size_t>(i)]);
    }
    for (const rtlil::Cell* cell : module.cells()) {
      if (!rtlil::is_ff(cell->type())) continue;
      const rtlil::SigSpec& q = cell->port("Q");
      const rtlil::SigSpec& d = cell->port("D");
      for (int i = 0; i < q.width(); ++i) {
        if (!q.bit(i).is_const()) latched.emplace(q.bit(i), faulty.reader_var(d.bit(i)));
      }
    }
    const bool stuck = config.kind == sim::FaultKind::kStuckAt0 ||
                       config.kind == sim::FaultKind::kStuckAt1;
    const sat::CnfCopy next_cycle(solver, module, latched,
                                  stuck ? faults : std::vector<sat::CnfFault>{});
    solver.add_unit(-next_cycle.wire_vars(variant.alert_wire)[0]);
  }

  const std::vector<int> golden_next = golden.ff_next_vars(variant.state_wire);
  const std::vector<int> faulty_next = faulty.ff_next_vars(variant.state_wire);
  solver.add_unit(sat::differ(solver, golden_next, faulty_next));
  solver.add_unit(sat::member_of(solver, faulty_next, variant.state_codes));

  Query query;
  query.exploitable = solver.solve() == sat::Result::kSat;
  query.stall = query.exploitable &&
                solver.solve(equal_lits(faulty_next, from_code)) == sat::Result::kSat;
  return query;
}

}  // namespace oracle_detail

/// The SAT back-end's report for `config`, rebuilt per query: per (site,
/// edge) in site-major order, exploitable or else detected, with stalls
/// counted by a second solve and exploitable sites in region order. The
/// execution knobs (lanes, threads, cancel) do not apply.
inline synfi::SynfiReport synfi_rebuild_oracle(const fsm::Fsm& fsm,
                                               const fsm::CompiledFsm& variant,
                                               const synfi::SynfiConfig& config) {
  const std::vector<rtlil::SigBit> sites = oracle_detail::region_sites(variant, config);
  synfi::SynfiReport report;
  report.faults_k = config.faults_k;
  report.sites = static_cast<std::int64_t>(sites.size());
  if (static_cast<std::size_t>(config.faults_k) > sites.size()) return report;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    bool hit = false;
    for (const fsm::CfgEdge& edge : fsm.cfg_edges()) {
      const oracle_detail::Query query = oracle_detail::solve_one(
          variant, config, sites, s, variant.state_codes[static_cast<std::size_t>(edge.from)],
          variant.symbol_codes.at(edge.symbol));
      ++report.injections;
      if (query.exploitable) {
        ++report.exploitable;
        hit = true;
        if (query.stall) ++report.stalls;
      } else {
        ++report.detected;
      }
    }
    if (hit) {
      report.exploitable_sites.push_back(sites[s].wire->name() + "[" +
                                         std::to_string(sites[s].offset) + "]");
    }
  }
  return report;
}

}  // namespace scfi::test
