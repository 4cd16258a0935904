// The design_flow workload: a user's full path from committed sources to
// stored verdicts. Inputs are the committed KISS2 corpus, the committed
// Verilog corpus and a seeded set of generated KISS2 machines of fixed size;
// the Figure 8 trio is the zoo's adc_ctrl_fsm with its datapath.
//
// setup: parse (KISS2, or Verilog parse + elaborate + FSM extraction), build
//        the unprotected, redundancy N3 and SCFI n2/n3 variants, synthesize
//        a second copy of each for area, build the SYNFI Analyzers.
// work:  STA on every synthesized copy, min-period sizing of the Figure 8
//        trio, k = 1 SYNFI (mds_ exhaustive at n2 and n3, whole-logic SAT at
//        n2), and campaigns on all three variants.
//
// It is the only workload that exercises frontends, fsm, core, redundancy,
// synth and sweep, and it uses sat and sim differently from the k-fault
// workloads: many easy k = 1 queries and mostly fault-free campaign cycles.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "frontends/verilog_parse.h"
#include "fsm/extract.h"
#include "fsm/kiss2.h"
#include "synth/sizing.h"
#include "synth/sta.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace ss = scfi::sweep;
namespace sy = scfi::synfi;
using scfi::ot::Variant;

constexpr int kCampaignRuns = 2000;
constexpr int kCampaignCycles = 12;
/// The committed baselines' campaign seed; every other campaign takes the
/// workload seed.
constexpr std::uint64_t kBaselineSeed = 1;

/// The generated machines: fixed shape, so every seed does comparable work.
constexpr int kGenerated = 4;
constexpr int kGenStates = 8;
constexpr int kGenInputs = 3;
constexpr int kGenOutputs = 2;
constexpr int kGenTransitions = 20;

/// splitmix64: the benchmark's own generator, so the inputs a seed makes do
/// not depend on the library under test.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

/// A KISS2 machine with kGenStates states and kGenTransitions transitions,
/// all reachable from the reset state. Guards are fully specified and
/// distinct per state, so no transition shadows another.
std::string generate_kiss2(std::uint64_t seed, int index) {
  SplitMix rng{seed * 0x100000001B3ULL + static_cast<std::uint64_t>(index)};
  constexpr int kGuards = 1 << kGenInputs;
  std::vector<std::vector<bool>> used(kGenStates, std::vector<bool>(kGuards, false));
  std::ostringstream body;
  const auto emit = [&](int from, int to) {
    int guard = rng.below(kGuards);
    while (used[static_cast<std::size_t>(from)][static_cast<std::size_t>(guard)]) {
      guard = (guard + 1) % kGuards;
    }
    used[static_cast<std::size_t>(from)][static_cast<std::size_t>(guard)] = true;
    for (int b = kGenInputs - 1; b >= 0; --b) body << (((guard >> b) & 1) != 0 ? '1' : '0');
    body << " S" << from << " S" << to << ' ';
    for (int o = 0; o < kGenOutputs; ++o) body << (rng.below(3) == 0 ? '1' : '0');
    body << '\n';
  };
  // A spanning chain makes every state reachable; the rest is random shape.
  for (int s = 1; s < kGenStates; ++s) emit(rng.below(s), s);
  for (int t = kGenStates - 1; t < kGenTransitions; ++t) {
    int from = rng.below(kGenStates);
    while (std::count(used[static_cast<std::size_t>(from)].begin(),
                      used[static_cast<std::size_t>(from)].end(), true) == kGuards) {
      from = (from + 1) % kGenStates;
    }
    emit(from, rng.below(kGenStates));
  }
  std::ostringstream text;
  text << ".i " << kGenInputs << "\n.o " << kGenOutputs << "\n.s " << kGenStates << "\n.p "
       << kGenTransitions << "\n.r S0\n"
       << body.str() << ".e\n";
  return text.str();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.generic_string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Files under `dir` with extension `ext`, as (name relative to dir without
/// the extension, path), name-sorted.
std::vector<std::pair<std::string, fs::path>> discover(const fs::path& dir,
                                                       const std::string& ext) {
  if (!fs::is_directory(dir)) throw std::runtime_error("missing input directory " + dir.string());
  std::vector<std::pair<std::string, fs::path>> files;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ext) continue;
    files.emplace_back(entry.path().lexically_relative(dir).replace_extension().generic_string(),
                       entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One analysed machine with its variants. Members that point into others
/// are declared after them.
struct Machine {
  std::string source;  ///< store label: "corpus", "corpus-verilog" or "generated"
  scfi::ot::OtEntry entry;
  BuiltVariant unprotected, redundancy, scfi2, scfi3;
  std::unique_ptr<sy::Analyzer> analyzer2, analyzer3;
  /// Synthesized copies of the four variants (area in setup, STA in work).
  std::vector<BuiltVariant> synthesized;
};

struct Fig8Config {
  const char* label;
  Variant variant;
  double paper_mhz;
};
const Fig8Config kFig8[] = {{"base", Variant::kUnprotected, 312.0},
                            {"redundancy_n3", Variant::kRedundancy, 308.0},
                            {"scfi_n3", Variant::kScfi, 294.0}};

class DesignFlow final : public Workload {
 public:
  DesignFlow(std::uint64_t seed, const std::string& root) : seed_(seed) {
    const fs::path base(root);
    kiss2_files_ = discover(base / "bench" / "corpus", ".kiss2");
    verilog_files_ = discover(base / "bench" / "corpus-verilog", ".v");
    baseline_files_ = {base / "bench" / "baselines" / "corpus_smoke.jsonl",
                       base / "bench" / "baselines" / "corpus_verilog_smoke.jsonl"};
    for (int i = 0; i < kGenerated; ++i) generated_.push_back(generate_kiss2(seed, i));
  }

  void setup(Pass& pass) override {
    read_inputs(pass);
    for (std::size_t i = 0; i < machines_.size(); ++i) build_machine(pass, *machines_[i], i);
    const scfi::ot::OtEntry adc = scfi::ot::ot_entry("adc_ctrl_fsm");
    const int job = static_cast<int>(machines_.size());
    for (const Fig8Config& config : kFig8) {
      fig8_.push_back(build_variant(pass, adc, config.variant, 3, std::string("fig8_") +
                                                                      config.label, job));
      synthesize(pass, *fig8_.back().compiled.module, job);
    }
  }

  void work(Pass& pass) override {
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      for (BuiltVariant& copy : machines_[i]->synthesized) {
        Span span(pass.tracer, "synth.sta", static_cast<int>(i));
        scfi::synth::analyze_timing(*copy.compiled.module);
      }
    }
    const int fig8_job = static_cast<int>(machines_.size());
    fmax_mhz_.clear();
    for (BuiltVariant& variant : fig8_) {
      scfi::rtlil::Module& module = *variant.compiled.module;
      {
        Span span(pass.tracer, "synth.sta", fig8_job);
        scfi::synth::analyze_timing(module);
      }
      double period = 0.0;
      {
        Span span(pass.tracer, "synth.sizing", fig8_job);
        period = scfi::synth::min_achievable_period(module);
      }
      fmax_mhz_.push_back(1e6 / period);
      for (const scfi::rtlil::Cell* cell : module.cells()) {
        if (cell->drive() > 0) ++pass.counts.synth_upsized;
      }
    }
    for (std::size_t i = 0; i < machines_.size(); ++i) run_jobs(pass, *machines_[i], i);
  }

  void release() override {
    machines_.clear();
    fig8_.clear();
  }

  void gate(const std::vector<ss::SweepResult>& records, GateResult& gate) override {
    std::map<std::string, const ss::SweepResult*> by_key;
    for (const ss::SweepResult& record : records) by_key[record.key()] = &record;

    // The committed corpora reproduce their committed baselines.
    for (const fs::path& path : baseline_files_) {
      const ss::ResultStore baseline = ss::ResultStore::load(path.string());
      gate.expect(baseline.size() > 0, path.generic_string() + ": empty baseline");
      for (const ss::SweepResult& expected : baseline.results()) {
        const auto it = by_key.find(expected.key());
        gate.expect(it != by_key.end() && ss::reports_equal(*it->second, expected),
                    expected.key() + ": differs from " + path.filename().string());
      }
    }

    // Independent references on freshly built variants: every campaign and
    // exhaustive sweep against a 64-lane re-run, and the whole-logic SAT
    // sweeps against exhaustive simulation.
    Tracer off;
    Pass scratch{off, {}, {}};
    setup(scratch);
    for (const std::unique_ptr<Machine>& m : machines_) {
      for (const ss::SweepJob& job : jobs_of(*m)) {
        const auto it = by_key.find(job.key());
        if (it == by_key.end() || it->second->status != ss::JobStatus::kOk) {
          gate.expect(false, job.key() + ": no ok record");
          continue;
        }
        const ss::SweepResult& record = *it->second;
        if (job.type == ss::JobType::kCampaign) {
          scfi::sim::CampaignConfig config = job.campaign;
          config.lanes = scfi::sim::kNumLanes;
          const scfi::sim::CampaignResult reference =
              scfi::sim::run_campaign(m->entry.fsm, variant_of(*m, job).compiled, config);
          gate.expect(reference == record.campaign,
                      job.key() + ": campaign differs from the 64-lane run");
        } else {
          sy::SynfiConfig config = job.synfi;
          config.backend = sy::Backend::kExhaustiveSim;
          config.lanes = scfi::sim::kNumLanes;
          config.threads = 1;
          Counters unused;
          const sy::SynfiReport reference = timed_run(
              off, unused, job.protection_level == 2 ? *m->analyzer2 : *m->analyzer3, config, -1);
          if (job.synfi.backend == sy::Backend::kSat) {
            gate.expect(sorted(reference.exploitable_sites) ==
                            sorted(record.report.exploitable_sites),
                        job.key() + ": SAT site set differs from exhaustive simulation");
          } else {
            gate.expect(reference == record.report,
                        job.key() + ": report differs from the 64-lane run");
          }
        }
      }
    }
    release();

    table1_fidelity(gate);
    for (std::size_t i = 0; i < fmax_mhz_.size(); ++i) {
      gate.fidelity.push_back(Fidelity{std::string("fig8.fmax_mhz.") + kFig8[i].label,
                                       fmax_mhz_[i], kFig8[i].paper_mhz, "MHz"});
    }
  }

 private:
  void read_inputs(Pass& pass) {
    for (const auto& [name, path] : kiss2_files_) {
      const std::string text = read_file(path);
      add_kiss2(pass, "corpus", name, text);
    }
    for (const auto& [base, path] : verilog_files_) {
      const std::string text = read_file(path);
      const std::string filename = path.generic_string();
      pass.counts.frontends_bytes += static_cast<std::int64_t>(text.size());
      const int job = static_cast<int>(machines_.size());
      scfi::frontends::ast::File file;
      {
        Span span(pass.tracer, "frontends.parse", job);
        file = scfi::frontends::parse_verilog(text, filename);
      }
      scfi::rtlil::Design design;
      for (const scfi::frontends::ast::Module& parsed : file.modules) {
        scfi::rtlil::Module* module = nullptr;
        {
          Span span(pass.tracer, "frontends.elaborate", job);
          module = &scfi::frontends::elaborate(parsed, design, filename);
        }
        std::vector<scfi::fsm::ExtractedFsm> extracted;
        {
          Span span(pass.tracer, "fsm.extract", job);
          extracted = scfi::fsm::extract_fsms(*module);
        }
        if (extracted.empty()) throw std::runtime_error("no FSM found in " + filename);
        // Entry names follow the Verilog corpus source, so keys match the
        // committed baseline.
        const std::string module_name =
            file.modules.size() == 1 ? base : base + "/" + module->name();
        for (scfi::fsm::ExtractedFsm& found : extracted) {
          auto m = std::make_unique<Machine>();
          m->source = "corpus-verilog";
          m->entry.name = extracted.size() == 1 ? module_name
                                                : module_name + "." + found.state_wire;
          m->entry.fsm = std::move(found.fsm);
          m->entry.fsm.name = m->entry.name;
          machines_.push_back(std::move(m));
          ++pass.counts.fsm_machines;
        }
      }
    }
    for (std::size_t i = 0; i < generated_.size(); ++i) {
      add_kiss2(pass, "generated", "g" + std::to_string(i), generated_[i]);
    }
  }

  void add_kiss2(Pass& pass, const std::string& source, const std::string& name,
                 const std::string& text) {
    auto m = std::make_unique<Machine>();
    m->source = source;
    m->entry.name = name;
    {
      Span span(pass.tracer, "fsm.kiss2_parse", static_cast<int>(machines_.size()));
      m->entry.fsm = scfi::fsm::parse_kiss2(text, name);
    }
    machines_.push_back(std::move(m));
    ++pass.counts.fsm_machines;
  }

  static void build_machine(Pass& pass, Machine& m, std::size_t index) {
    const int job = static_cast<int>(index);
    const std::string name = m.entry.name + "_sweep";
    m.unprotected = build_variant(pass, m.entry, Variant::kUnprotected, 2, name, job);
    m.redundancy = build_variant(pass, m.entry, Variant::kRedundancy, 3, name, job);
    m.scfi2 = build_variant(pass, m.entry, Variant::kScfi, 2, name, job);
    m.scfi3 = build_variant(pass, m.entry, Variant::kScfi, 3, name, job);
    {
      Span span(pass.tracer, "synfi.analyzer_build", job);
      m.analyzer2 = std::make_unique<sy::Analyzer>(m.entry.fsm, m.scfi2.compiled);
    }
    {
      Span span(pass.tracer, "synfi.analyzer_build", job);
      m.analyzer3 = std::make_unique<sy::Analyzer>(m.entry.fsm, m.scfi3.compiled);
    }
    const std::pair<Variant, int> area_variants[] = {{Variant::kUnprotected, 2},
                                                     {Variant::kRedundancy, 3},
                                                     {Variant::kScfi, 2},
                                                     {Variant::kScfi, 3}};
    for (const auto& [variant, level] : area_variants) {
      m.synthesized.push_back(build_variant(pass, m.entry, variant, level, name, job));
      synthesize(pass, *m.synthesized.back().compiled.module, job);
    }
  }

  /// Every verdict job of one machine, in execution order.
  std::vector<ss::SweepJob> jobs_of(const Machine& m) const {
    std::vector<ss::SweepJob> jobs;
    const auto synfi = [&](int level, const std::string& region, sy::Backend backend) {
      ss::SweepJob job;
      job.source = m.source;
      job.module = m.entry.name;
      job.protection_level = level;
      job.synfi.wire_prefix = region;
      job.synfi.backend = backend;
      jobs.push_back(job);
    };
    synfi(2, "mds_", sy::Backend::kExhaustiveSim);
    synfi(3, "mds_", sy::Backend::kExhaustiveSim);
    synfi(2, "", sy::Backend::kSat);
    const auto campaign = [&](const std::string& variant, int level, scfi::sim::FaultTarget target,
                              std::uint64_t seed) {
      ss::SweepJob job;
      job.type = ss::JobType::kCampaign;
      job.source = m.source;
      job.module = m.entry.name;
      job.variant = variant;
      job.protection_level = level;
      job.campaign.runs = kCampaignRuns;
      job.campaign.cycles = kCampaignCycles;
      job.campaign.fault.target = target;
      job.campaign.seed = seed;
      jobs.push_back(job);
    };
    // The committed corpora repeat their baselines' campaign shape and seed;
    // the generated machines take the workload seed.
    const std::uint64_t scfi2_seed = m.source == "generated" ? seed_ : kBaselineSeed;
    campaign("scfi", 2, scfi::sim::FaultTarget::kAny, scfi2_seed);
    if (m.source == "corpus") {
      campaign("scfi", 2, scfi::sim::FaultTarget::kStateRegister, scfi2_seed);
    }
    campaign("unprotected", 2, scfi::sim::FaultTarget::kAny, seed_);
    campaign("redundancy", 3, scfi::sim::FaultTarget::kAny, seed_);
    campaign("scfi", 3, scfi::sim::FaultTarget::kAny, seed_);
    return jobs;
  }

  static const BuiltVariant& variant_of(const Machine& m, const ss::SweepJob& job) {
    if (job.variant == "unprotected") return m.unprotected;
    if (job.variant == "redundancy") return m.redundancy;
    return job.protection_level == 2 ? m.scfi2 : m.scfi3;
  }

  void run_jobs(Pass& pass, Machine& m, std::size_t index) const {
    const int job_id = static_cast<int>(index);
    for (const ss::SweepJob& job : jobs_of(m)) {
      const BuiltVariant& variant = variant_of(m, job);
      const int lanes = sy::auto_lanes(*variant.compiled.module);
      if (job.type == ss::JobType::kCampaign) {
        campaign_job(pass, m.entry.fsm, variant.compiled, job, lanes, job_id);
      } else {
        synfi_job(pass, job.protection_level == 2 ? *m.analyzer2 : *m.analyzer3, job, lanes,
                  job_id);
      }
    }
  }

  /// Table 1 geometric-mean area overheads over the seven zoo modules.
  static void table1_fidelity(GateResult& gate) {
    const double paper_red[] = {17.5, 42.9, 67.6};
    const double paper_scfi[] = {9.6, 21.8, 27.1};
    double log_red[3] = {0, 0, 0};
    double log_scfi[3] = {0, 0, 0};
    int modules = 0;
    for (const scfi::ot::OtEntry& entry : scfi::ot::ot_zoo()) {
      const auto area = [&](Variant variant, int level) {
        scfi::rtlil::Design design;
        scfi::fsm::CompiledFsm compiled =
            scfi::ot::build_ot_variant(entry, design, variant, level, "t1");
        return scfi::ot::synthesize_area(*compiled.module).total_ge;
      };
      const double base = area(Variant::kUnprotected, 2);
      for (int n = 2; n <= 4; ++n) {
        log_red[n - 2] += std::log(100.0 * (area(Variant::kRedundancy, n) - base) / base);
        log_scfi[n - 2] += std::log(100.0 * (area(Variant::kScfi, n) - base) / base);
      }
      ++modules;
    }
    for (int n = 2; n <= 4; ++n) {
      const std::string level = ".n" + std::to_string(n);
      gate.fidelity.push_back(Fidelity{"table1.redundancy_overhead_geomean" + level,
                                       std::exp(log_red[n - 2] / modules), paper_red[n - 2], "%"});
      gate.fidelity.push_back(Fidelity{"table1.scfi_overhead_geomean" + level,
                                       std::exp(log_scfi[n - 2] / modules), paper_scfi[n - 2],
                                       "%"});
    }
  }

  std::uint64_t seed_;
  std::vector<std::pair<std::string, fs::path>> kiss2_files_;
  std::vector<std::pair<std::string, fs::path>> verilog_files_;
  std::vector<fs::path> baseline_files_;
  std::vector<std::string> generated_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<BuiltVariant> fig8_;
  std::vector<double> fmax_mhz_;
};

}  // namespace

std::unique_ptr<Workload> make_design_flow(std::uint64_t seed, const std::string& root) {
  return std::make_unique<DesignFlow>(seed, root);
}

}  // namespace perfbench
