#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/harden.h"
#include "redundancy/redundancy.h"
#include "rtlil/validate.h"
#include "synth/lower.h"
#include "synth/opt.h"
#include "synth/stat.h"

namespace perfbench {

namespace ss = scfi::sweep;

std::map<std::string, double> Tracer::self_times(int pass) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].pass != pass) continue;
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%d,\"pass\":%d}}%s\n",
                  s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent, s.job,
                  s.pass, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

bool same_counts(const Counters& a, const Counters& b) {
  return a.jobs == b.jobs && a.failed == b.failed && a.frontends_bytes == b.frontends_bytes &&
         a.fsm_machines == b.fsm_machines && a.core_cells == b.core_cells &&
         a.core_mds_xor_gates == b.core_mds_xor_gates &&
         a.redundancy_cells == b.redundancy_cells && a.synth_gates == b.synth_gates &&
         a.synth_area_ge == b.synth_area_ge && a.synth_upsized == b.synth_upsized &&
         a.sat_queries == b.sat_queries && a.sat_exploitable == b.sat_exploitable &&
         a.injections == b.injections && a.sim_exploitable == b.sim_exploitable &&
         a.sim_runs == b.sim_runs && a.sim_lanes == b.sim_lanes &&
         a.campaign_runs == b.campaign_runs && a.campaign_hijacked == b.campaign_hijacked &&
         a.campaign_detected == b.campaign_detected &&
         a.campaign_effective == b.campaign_effective && a.records == b.records;
}

void GateResult::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++mismatches;
  std::fprintf(stderr, "verdict mismatch: %s\n", what.c_str());
}

BuiltVariant build_variant(Pass& pass, const scfi::ot::OtEntry& entry, scfi::ot::Variant variant,
                           int level, const std::string& module_name, int job) {
  BuiltVariant built;
  built.design = std::make_unique<scfi::rtlil::Design>();
  scfi::fsm::Fsm fsm = entry.fsm;
  fsm.name = module_name;
  switch (variant) {
    case scfi::ot::Variant::kUnprotected: {
      Span span(pass.tracer, "fsm.compile", job);
      built.compiled = scfi::fsm::compile_unprotected(fsm, *built.design);
      break;
    }
    case scfi::ot::Variant::kRedundancy: {
      scfi::redundancy::RedundancyConfig config;
      config.protection_level = level;
      config.module_suffix = "";
      {
        Span span(pass.tracer, "redundancy.build", job);
        built.compiled = scfi::redundancy::build_redundant(fsm, *built.design, config);
      }
      pass.counts.redundancy_cells +=
          static_cast<std::int64_t>(built.compiled.module->cells().size());
      break;
    }
    case scfi::ot::Variant::kScfi: {
      scfi::core::ScfiConfig config;
      config.protection_level = level;
      config.module_suffix = "";
      scfi::core::ScfiReport report;
      {
        Span span(pass.tracer, "core.harden", job);
        built.compiled = scfi::core::scfi_harden(fsm, *built.design, config, &report);
      }
      pass.counts.core_cells += static_cast<std::int64_t>(built.compiled.module->cells().size());
      pass.counts.core_mds_xor_gates +=
          static_cast<std::int64_t>(report.mds_xor_gates) * report.lanes;
      break;
    }
  }
  if (entry.datapath) entry.datapath(*built.compiled.module);
  scfi::rtlil::validate_module(*built.compiled.module);
  return built;
}

void synthesize(Pass& pass, scfi::rtlil::Module& module, int job) {
  {
    Span span(pass.tracer, "synth.lower", job);
    scfi::synth::lower_to_gates(module);
  }
  {
    Span span(pass.tracer, "synth.opt", job);
    scfi::synth::optimize(module);
  }
  scfi::synth::AreaReport area;
  {
    Span span(pass.tracer, "synth.area", job);
    area = scfi::synth::area_report(module);
  }
  pass.counts.synth_gates += area.cells;
  pass.counts.synth_area_ge += area.total_ge;
}

scfi::synfi::SynfiReport timed_run(Tracer& tracer, Counters& counts,
                                   scfi::synfi::Analyzer& analyzer,
                                   const scfi::synfi::SynfiConfig& config, int job) {
  const bool sat = config.backend == scfi::synfi::Backend::kSat;
  const Clock::time_point start = Clock::now();
  scfi::synfi::SynfiReport report;
  {
    Span span(tracer, sat ? "synfi.sat_run" : "synfi.sim_run", job);
    report = analyzer.run(config);
  }
  const double elapsed = seconds_since(start);
  if (sat) {
    counts.sat_queries += report.injections;
    counts.sat_exploitable += report.exploitable;
    counts.sat_s += elapsed;
  } else {
    counts.injections += report.injections;
    counts.sim_exploitable += report.exploitable;
    counts.sim_runs += 1;
    counts.sim_lanes += config.lanes;
    counts.sim_s += elapsed;
  }
  return report;
}

namespace {

void record_failure(Pass& pass, ss::SweepJob job, const std::exception& error) {
  ++pass.counts.failed;
  std::fprintf(stderr, "job failed: %s: %s\n", job.key().c_str(), error.what());
  ss::SweepResult result;
  result.job = std::move(job);
  result.status = ss::JobStatus::kFailed;
  result.error = error.what();
  pass.records.push_back(std::move(result));
}

}  // namespace

void synfi_job(Pass& pass, scfi::synfi::Analyzer& analyzer, ss::SweepJob job, int lanes,
               int index) {
  ++pass.counts.jobs;
  job.synfi.lanes = lanes;
  job.synfi.threads = 1;
  try {
    ss::SweepResult result;
    result.job = job;
    result.report = timed_run(pass.tracer, pass.counts, analyzer, job.synfi, index);
    // The sweep's measured protection degree: the smallest exploitable k up
    // to the job's faults_k, probing the smaller k on the same analyzer.
    for (int k = 1; k < job.synfi.faults_k && result.protection_degree == 0; ++k) {
      scfi::synfi::SynfiConfig probe = job.synfi;
      probe.faults_k = k;
      if (timed_run(pass.tracer, pass.counts, analyzer, probe, index).exploitable > 0) {
        result.protection_degree = k;
      }
    }
    if (result.protection_degree == 0 && result.report.exploitable > 0) {
      result.protection_degree = job.synfi.faults_k;
    }
    pass.records.push_back(std::move(result));
  } catch (const std::exception& e) {
    record_failure(pass, std::move(job), e);
  }
}

void campaign_job(Pass& pass, const scfi::fsm::Fsm& fsm, const scfi::fsm::CompiledFsm& variant,
                  ss::SweepJob job, int lanes, int index) {
  ++pass.counts.jobs;
  job.campaign.lanes = lanes;
  job.campaign.threads = 1;
  job.campaign.planner = scfi::sim::CampaignPlanner::kStreaming;
  const std::string span_name = "sim.campaign." + job.variant;
  try {
    ss::SweepResult result;
    result.job = job;
    const Clock::time_point start = Clock::now();
    {
      Span span(pass.tracer, span_name.c_str(), index);
      result.campaign = scfi::sim::run_campaign(fsm, variant, job.campaign);
    }
    pass.counts.campaign_s += seconds_since(start);
    pass.counts.campaign_runs += result.campaign.runs;
    pass.counts.campaign_hijacked += result.campaign.hijacked;
    pass.counts.campaign_detected += result.campaign.detected;
    pass.counts.campaign_effective += result.campaign.effective();
    pass.records.push_back(std::move(result));
  } catch (const std::exception& e) {
    record_failure(pass, std::move(job), e);
  }
}

std::vector<std::string> sorted(std::vector<std::string> sites) {
  std::sort(sites.begin(), sites.end());
  return sites;
}

}  // namespace perfbench
