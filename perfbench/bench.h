// Shared pieces of the benchmark program: the per-pass context, the layer
// counters, the timed wrappers around the engine calls, and the workload
// interface. Everything here calls only the library's public headers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ot/zoo.h"
#include "sim/campaign.h"
#include "sweep/result_store.h"
#include "synfi/synfi.h"
#include "trace.h"

namespace perfbench {

/// Work done in one pass, per layer. Every field is a count or a sum that
/// must repeat exactly from pass to pass and run to run, except the `*_s`
/// busy times, which feed the throughput metrics.
struct Counters {
  std::int64_t jobs = 0;    ///< verdict jobs attempted
  std::int64_t failed = 0;  ///< verdict jobs that threw

  std::int64_t frontends_bytes = 0;
  std::int64_t fsm_machines = 0;
  std::int64_t core_cells = 0;
  std::int64_t core_mds_xor_gates = 0;
  std::int64_t redundancy_cells = 0;
  std::int64_t synth_gates = 0;
  double synth_area_ge = 0.0;
  std::int64_t synth_upsized = 0;

  std::int64_t sat_queries = 0;
  std::int64_t sat_exploitable = 0;
  double sat_s = 0.0;
  std::int64_t injections = 0;
  std::int64_t sim_exploitable = 0;
  std::int64_t sim_runs = 0;
  std::int64_t sim_lanes = 0;  ///< summed over exhaustive runs
  double sim_s = 0.0;

  std::int64_t campaign_runs = 0;
  std::int64_t campaign_hijacked = 0;
  std::int64_t campaign_detected = 0;
  std::int64_t campaign_effective = 0;
  double campaign_s = 0.0;

  std::int64_t records = 0;
};

/// True when every count (not the busy times) of `a` equals that of `b`.
bool same_counts(const Counters& a, const Counters& b);

struct Pass {
  Tracer& tracer;
  Counters counts;
  std::vector<scfi::sweep::SweepResult> records;
};

/// One paper-fidelity datum: the value measured here next to the paper's
/// (NaN when the paper gives none). Recorded, never asserted or tuned.
struct Fidelity {
  std::string name;
  double value = 0.0;
  double paper = 0.0;
  std::string unit;
};

/// What the correctness gate found, plus samples of the reference engines'
/// work taken between the timed passes: on a workload whose passes never
/// call an engine, that engine's throughput metric is the median over these.
struct GateResult {
  std::int64_t mismatches = 0;
  std::vector<Counters> reference;
  std::vector<Fidelity> fidelity;

  void expect(bool ok, const std::string& what);
};

/// A compiled variant with the Design that owns it.
struct BuiltVariant {
  std::unique_ptr<scfi::rtlil::Design> design;
  scfi::fsm::CompiledFsm compiled;
};

/// The build_ot_variant recipe, with the layer call (compile_unprotected,
/// build_redundant or scfi_harden) inside its own span and counted.
BuiltVariant build_variant(Pass& pass, const scfi::ot::OtEntry& entry, scfi::ot::Variant variant,
                           int level, const std::string& module_name, int job);

/// Lowers, optimizes and area-reports `module` in place, one span per call.
void synthesize(Pass& pass, scfi::rtlil::Module& module, int job);

/// Runs one SYNFI job the way the sweep does (the job, then the smaller-k
/// probes for the measured protection degree) and appends its record.
void synfi_job(Pass& pass, scfi::synfi::Analyzer& analyzer, scfi::sweep::SweepJob job, int lanes,
               int index);

/// Runs one campaign job and appends its record, in a span named after the
/// job's variant.
void campaign_job(Pass& pass, const scfi::fsm::Fsm& fsm, const scfi::fsm::CompiledFsm& variant,
                  scfi::sweep::SweepJob job, int lanes, int index);

/// Timed Analyzer::run, counted into `counts` (no record).
scfi::synfi::SynfiReport timed_run(Tracer& tracer, Counters& counts,
                                   scfi::synfi::Analyzer& analyzer,
                                   const scfi::synfi::SynfiConfig& config, int job);

/// Sorted copy of a site list, for set comparison.
std::vector<std::string> sorted(std::vector<std::string> sites);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Reads the inputs and builds everything the engines need.
  virtual void setup(Pass& pass) = 0;
  /// Runs every verdict job, appending one record per job to pass.records.
  virtual void work(Pass& pass) = 0;
  /// Drops what setup() built, so the next pass starts from the inputs.
  virtual void release() = 0;
  /// Checks one pass's records against independent references and records
  /// paper-fidelity data. Runs outside every timed region.
  virtual void gate(const std::vector<scfi::sweep::SweepResult>& records, GateResult& gate) = 0;
  /// Adds samples of the engines the passes never call to gate.reference.
  /// Runs between passes, outside every timed region. Returns false when the
  /// passes call every engine.
  virtual bool sample(GateResult& /*gate*/) { return false; }
};

std::unique_ptr<Workload> make_kfault_sat(std::uint64_t seed);
std::unique_ptr<Workload> make_kfault_sim(std::uint64_t seed);
std::unique_ptr<Workload> make_design_flow(std::uint64_t seed, const std::string& root);

}  // namespace perfbench
