// The two k-fault workloads: SYNFI k-fault sweeps on the mds_ region of
// level-3 SCFI variants of zoo modules, one on each back-end. The timed
// passes run SYNFI only; the other back-end and the k-fault campaigns run as
// references, in the correctness gate and in the samples between passes.
//
//   kfault_sat  SAT back-end. Few hard queries on long-lived incremental
//               solvers: the measured wall of the toolchain.
//   kfault_sim  exhaustive back-end. Every lane carries a fault, so the
//               faulty eval path and the lane width decide the time; the
//               four modules make auto_lanes pick 64, 128 and 256 lanes.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

namespace ss = scfi::sweep;
namespace sy = scfi::synfi;

constexpr int kLevel = 3;
// The campaign shape of the src/sweep/README.md k-fault example
// (`--campaign-runs 2000 --campaign-cycles 12 --campaign-faults K`).
constexpr int kCampaignRuns = 2000;
constexpr int kCampaignCycles = 12;

struct Target {
  const char* module;
  int k;
  /// Also answer the module's (k-1)-fault sweep on the other back-end in the
  /// gate, where that is affordable, and compare the site sets.
  bool cross_check_below_k;
};

/// A zoo module's SCFI n3 variant with its Analyzer. Held by pointer,
/// because the Analyzer refers to `entry.fsm`.
struct Module {
  scfi::ot::OtEntry entry;
  BuiltVariant variant;
  std::unique_ptr<sy::Analyzer> analyzer;  // declared after what it points into

  int lanes() const { return sy::auto_lanes(*variant.compiled.module); }
};

std::unique_ptr<Module> build_module(Pass& pass, const char* name, const std::string& suffix,
                                     int job) {
  auto m = std::make_unique<Module>();
  m->entry = scfi::ot::ot_entry(name);
  m->variant = build_variant(pass, m->entry, scfi::ot::Variant::kScfi, kLevel,
                             m->entry.name + suffix, job);
  Span span(pass.tracer, "synfi.analyzer_build", job);
  m->analyzer = std::make_unique<sy::Analyzer>(m->entry.fsm, m->variant.compiled);
  return m;
}

/// A module for the gate, built apart from the timed passes so the
/// references never share state with them.
std::unique_ptr<Module> fresh(const char* name) {
  Tracer off;
  Pass scratch{off, {}, {}};
  return build_module(scratch, name, "_ref", -1);
}

class KFault final : public Workload {
 public:
  KFault(sy::Backend backend, std::vector<Target> targets, std::uint64_t seed)
      : backend_(backend), targets_(std::move(targets)), seed_(seed) {}

  void setup(Pass& pass) override {
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      modules_.push_back(build_module(pass, targets_[i].module, "_sweep", static_cast<int>(i)));
    }
  }

  void work(Pass& pass) override {
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      Module& m = *modules_[i];
      const int job = static_cast<int>(i);
      synfi_job(pass, *m.analyzer, synfi_identity(targets_[i]), m.lanes(), job);
    }
  }

  void release() override { modules_.clear(); }

  void gate(const std::vector<ss::SweepResult>& records, GateResult& gate) override {
    for (const Target& target : targets_) check(target, records, gate);
    // The k-fault campaigns: lane packing must not change a result, and the
    // sampled results must repeat on fresh variants.
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      const std::unique_ptr<Module> m = fresh(targets_[i].module);
      const scfi::sim::CampaignResult result = campaign(*m, targets_[i], m->lanes());
      const std::string module = targets_[i].module;
      gate.expect(campaign(*m, targets_[i], scfi::sim::kNumLanes) == result,
                  module + ": campaign differs from the 64-lane run");
      if (i < campaigns_.size()) {
        gate.expect(campaigns_[i] == result, module + ": sampled campaign differs");
      }
    }
  }

  /// One sample of the other back-end on every target's questions, then the
  /// k-fault campaign a sweep would run next to each SYNFI job. A campaign
  /// set takes milliseconds, so it repeats for half a second, one sample per
  /// repeat.
  bool sample(GateResult& gate) override {
    Counters other;
    for (const Target& target : targets_) other_backend(target, other);
    gate.reference.push_back(other);

    std::vector<std::unique_ptr<Module>> modules;
    for (const Target& target : targets_) modules.push_back(fresh(target.module));
    const Clock::time_point start = Clock::now();
    do {
      Counters counts;
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        const Clock::time_point run_start = Clock::now();
        const scfi::sim::CampaignResult result =
            campaign(*modules[i], targets_[i], modules[i]->lanes());
        counts.campaign_s += seconds_since(run_start);
        counts.campaign_runs += result.runs;
        if (campaigns_.size() == i) campaigns_.push_back(result);
        gate.expect(result == campaigns_[i], std::string(targets_[i].module) +
                                                 ": campaign differs between samples");
      }
      gate.reference.push_back(counts);
    } while (seconds_since(start) < 0.5);
    return true;
  }

 private:
  /// Exhaustive reports for k = 1..max_k on `lanes` lanes, by k.
  static std::map<int, sy::SynfiReport> exhaustive(Module& m, const sy::SynfiConfig& job,
                                                   int max_k, int lanes, Counters& counts) {
    Tracer off;
    sy::SynfiConfig config = job;
    config.backend = sy::Backend::kExhaustiveSim;
    config.lanes = lanes;
    config.threads = 1;
    std::map<int, sy::SynfiReport> reports;
    for (int k = 1; k <= max_k; ++k) {
      config.faults_k = k;
      reports[k] = timed_run(off, counts, *m.analyzer, config, -1);
    }
    return reports;
  }

  /// The other back-end on this target's questions, on a fresh variant:
  /// exhaustive simulation at every k up to the job's for the SAT workload;
  /// SAT at k - 1, where affordable, for the exhaustive one. Reports by k.
  std::map<int, sy::SynfiReport> other_backend(const Target& target, Counters& counts) const {
    const std::unique_ptr<Module> m = fresh(target.module);
    const sy::SynfiConfig job = synfi_identity(target).synfi;
    if (backend_ == sy::Backend::kSat) return exhaustive(*m, job, target.k, m->lanes(), counts);
    std::map<int, sy::SynfiReport> reports;
    if (target.cross_check_below_k) {
      Tracer off;
      sy::SynfiConfig config = job;
      config.backend = sy::Backend::kSat;
      config.faults_k = target.k - 1;
      config.threads = 1;
      reports[config.faults_k] = timed_run(off, counts, *m->analyzer, config, -1);
    }
    return reports;
  }

  void check(const Target& target, const std::vector<ss::SweepResult>& records,
             GateResult& gate) const {
    const ss::SweepJob synfi = synfi_identity(target);
    const ss::SweepResult* synfi_record = find(records, synfi.key());
    gate.expect(synfi_record != nullptr && synfi_record->status == ss::JobStatus::kOk,
                synfi.key() + ": no ok record");
    if (synfi_record == nullptr) return;

    Counters unused;
    const std::map<int, sy::SynfiReport> other = other_backend(target, unused);
    std::map<int, sy::SynfiReport> by_k = other;
    if (backend_ == sy::Backend::kSat) {
      gate.expect(sorted(synfi_record->report.exploitable_sites) ==
                      sorted(other.at(target.k).exploitable_sites),
                  synfi.key() + ": SAT site set differs from exhaustive simulation");
    } else {
      // A different lane packing from auto_lanes must give the same report.
      const std::unique_ptr<Module> m = fresh(target.module);
      by_k = exhaustive(*m, synfi.synfi, target.k, scfi::sim::kNumLanes, unused);
      gate.expect(synfi_record->report == by_k.at(target.k),
                  synfi.key() + ": report differs from the 64-lane run");
      for (const auto& [k, answer] : other) {
        gate.expect(sorted(answer.exploitable_sites) == sorted(by_k.at(k).exploitable_sites),
                    synfi.key() + ": k=" + std::to_string(k) +
                        " site sets differ between back-ends");
      }
    }
    int degree = 0;
    for (const auto& [k, report] : by_k) {
      if (degree == 0 && report.exploitable > 0) degree = k;
    }
    gate.expect(synfi_record->protection_degree == degree,
                synfi.key() + ": protection degree differs from the reference");
    // Recorded as measured: the paper's level-3 encoding claims degree 3.
    gate.fidelity.push_back(Fidelity{std::string("protection_degree.") + target.module +
                                         ".n3.mds_",
                                     static_cast<double>(degree), kLevel, "k"});
  }

  ss::SweepJob synfi_identity(const Target& target) const {
    ss::SweepJob job;
    job.type = ss::JobType::kSynfi;
    job.module = target.module;
    job.variant = "scfi";
    job.protection_level = kLevel;
    job.synfi.wire_prefix = "mds_";
    job.synfi.backend = backend_;
    job.synfi.faults_k = target.k;
    return job;
  }

  scfi::sim::CampaignResult campaign(const Module& m, const Target& target, int lanes) const {
    scfi::sim::CampaignConfig config;
    config.runs = kCampaignRuns;
    config.cycles = kCampaignCycles;
    config.fault.k = target.k;
    config.seed = seed_;
    config.lanes = lanes;
    config.threads = 1;
    return scfi::sim::run_campaign(m.entry.fsm, m.variant.compiled, config);
  }

  static const ss::SweepResult* find(const std::vector<ss::SweepResult>& records,
                                     const std::string& key) {
    for (const ss::SweepResult& record : records) {
      if (record.key() == key) return &record;
    }
    return nullptr;
  }

  sy::Backend backend_;
  std::vector<Target> targets_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<scfi::sim::CampaignResult> campaigns_;  ///< first sample's, by target
};

}  // namespace

std::unique_ptr<Workload> make_kfault_sat(std::uint64_t seed) {
  // i2c_fsm runs at k = 2: its k = 3 SAT sweep alone takes ~35 s.
  return std::make_unique<KFault>(sy::Backend::kSat,
                                  std::vector<Target>{{"pwrmgr_fsm", 3, false},
                                                      {"aes_control", 3, false},
                                                      {"ibex_lsu", 3, false},
                                                      {"i2c_fsm", 2, false}},
                                  seed);
}

std::unique_ptr<Workload> make_kfault_sim(std::uint64_t seed) {
  // The SAT cross-check runs at k = 2, where it costs about a second per
  // module; i2c_fsm's k = 2 SAT sweep is kfault_sat's job already.
  return std::make_unique<KFault>(sy::Backend::kExhaustiveSim,
                                  std::vector<Target>{{"i2c_fsm", 3, false},
                                                      {"adc_ctrl_fsm", 3, true},
                                                      {"otbn_controller", 3, true},
                                                      {"ibex_controller", 3, true}},
                                  seed);
}

}  // namespace perfbench
