// Benchmark program: one process, one workload, only the library's public
// calls. See perfbench/README.md for the workloads, the metrics and how to
// run it.
//
//   scfi_perfbench --workload kfault_sat|kfault_sim|design_flow --seed N
//                  --seconds S --trace 0|1 [--root DIR] [--out DIR]
//
// A run sets up the workload several times, then repeats passes (set-up,
// every verdict job, every verdict appended to an fsync'd store, the store
// reloaded) until S seconds have passed, and reports medians. With --trace 1
// it alternates untraced and traced passes and reports per-layer self time
// and the tracing overhead instead of the end-to-end metrics. The
// correctness gate runs after the timed passes; any verdict mismatch makes
// the run exit non-zero.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/log.h"
#include "bench.h"

#ifndef SCFI_PERFBENCH_BUILD_TYPE
#define SCFI_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace ss = scfi::sweep;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "scfi_perfbench: %s\nusage: scfi_perfbench --workload "
               "kfault_sat|kfault_sim|design_flow --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--root") {
        options.root = value;
      } else if (arg == "--out") {
        options.out = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

// --- host fingerprint -------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The clone the simulator's target_clones("arch=x86-64-v4", "arch=x86-64-v3",
/// "default") resolver picks on this CPU.
std::string clone_isa() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
#endif
  return "default";
}

std::string compiler() {
#if defined(__clang__)
  return __VERSION__;  // already "Clang x.y.z ..."
#else
  return std::string("gcc ") + __VERSION__;
#endif
}

std::string host_json() {
  const char* cap = std::getenv("SCFI_LANE_WORDS_CAP");
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(cpu_model()) << ",\"nproc\":" << usable_cpus()
      << ",\"clone_isa\":" << json_string(clone_isa())
      << ",\"compiler\":" << json_string(compiler())
      << ",\"build_type\":" << json_string(SCFI_PERFBENCH_BUILD_TYPE)
      << ",\"lane_words_cap\":" << json_string(cap != nullptr ? cap : "") << "}";
  return out.str();
}

/// Peak resident memory of this process image. getrusage's ru_maxrss would
/// also carry the peak of the process that exec'd this one (the Python
/// launcher), so this reads the kernel's per-image high-water mark instead.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// --- passes -----------------------------------------------------------------

struct PassOutcome {
  bool traced = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  Counters counts;
  std::vector<ss::SweepResult> records;
  std::vector<ss::SweepResult> reloaded;
  std::map<std::string, double> self_s;
};

class Runner {
 public:
  Runner(Workload& workload, Tracer& tracer, std::string store_path)
      : workload_(workload), tracer_(tracer), store_path_(std::move(store_path)) {}

  /// Set-up alone, released again; returns its duration.
  double setup_only() {
    tracer_.set_enabled(false);
    Pass pass{tracer_, {}, {}};
    const Clock::time_point start = Clock::now();
    workload_.setup(pass);
    const double elapsed = seconds_since(start);
    workload_.release();
    return elapsed;
  }

  PassOutcome pass(bool traced) {
    const int index = passes_++;
    fs::remove(store_path_);
    tracer_.set_enabled(traced);
    tracer_.set_pass(index);
    Pass pass{tracer_, {}, {}};
    PassOutcome outcome;
    outcome.traced = traced;
    const Clock::time_point start = Clock::now();
    {
      Span root(tracer_, "pass");
      {
        Span span(tracer_, "setup");
        workload_.setup(pass);
      }
      outcome.setup_s = seconds_since(start);
      {
        Span span(tracer_, "work");
        workload_.work(pass);
      }
      for (std::size_t i = 0; i < pass.records.size(); ++i) {
        Span span(tracer_, "sweep.append", static_cast<int>(i));
        ss::ResultStore::append_line(store_path_, pass.records[i]);
      }
      ss::ResultStore store;
      {
        Span span(tracer_, "sweep.load");
        store = ss::ResultStore::load(store_path_);
      }
      outcome.reloaded = store.results();
    }
    outcome.wall_s = seconds_since(start);
    workload_.release();
    tracer_.set_enabled(false);
    pass.counts.records = static_cast<std::int64_t>(outcome.reloaded.size());
    outcome.counts = pass.counts;
    outcome.records = std::move(pass.records);
    if (traced) outcome.self_s = tracer_.self_times(index);
    return outcome;
  }

 private:
  Workload& workload_;
  Tracer& tracer_;
  std::string store_path_;
  int passes_ = 0;
};

/// Same keys in the same order with equal verdicts.
bool same_records(const std::vector<ss::SweepResult>& a, const std::vector<ss::SweepResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key() != b[i].key() || !ss::reports_equal(a[i], b[i])) return false;
  }
  return true;
}

/// Throughput of one engine: the median per-pass rate when the timed passes
/// used it, otherwise the median over the gate's reference samples.
double rate(const std::vector<Counters>& passes, const std::vector<Counters>& reference,
            const std::function<std::pair<double, double>(const Counters&)>& work_and_time) {
  const auto rates = [&](const std::vector<Counters>& samples) {
    std::vector<double> out;
    for (const Counters& counts : samples) {
      const auto [work, time] = work_and_time(counts);
      if (work > 0 && time > 0) out.push_back(work / time);
    }
    return out;
  };
  const std::vector<double> measured = rates(passes);
  return median(measured.empty() ? rates(reference) : measured);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Span name -> per-layer metric name: "synth.lower" -> "synth.lower_s",
/// "sim.campaign.scfi" -> "sim.campaign_s.scfi".
std::string time_metric(const std::string& span) {
  const std::size_t first = span.find('.');
  const std::size_t second = first == std::string::npos ? first : span.find('.', first + 1);
  if (second == std::string::npos) return span + "_s";
  return span.substr(0, second) + "_s" + span.substr(second);
}

const char* const kLayerSpans[] = {
    "frontends.parse",  "frontends.elaborate", "fsm.kiss2_parse",
    "fsm.extract",      "fsm.compile",         "core.harden",
    "redundancy.build", "synth.lower",         "synth.opt",
    "synth.area",       "synth.sta",           "synth.sizing",
    "synfi.analyzer_build", "synfi.sat_run",   "synfi.sim_run",
    "sim.campaign.unprotected", "sim.campaign.redundancy", "sim.campaign.scfi",
    "sweep.append",     "sweep.load",
};

std::vector<double> walls(const std::vector<PassOutcome>& passes, bool traced) {
  std::vector<double> out;
  for (const PassOutcome& p : passes) {
    if (p.traced == traced) out.push_back(p.wall_s);
  }
  return out;
}

std::vector<Metric> end_to_end_metrics(const std::vector<PassOutcome>& passes,
                                       const std::vector<double>& setups, const GateResult& gate,
                                       double rss_mb) {
  std::vector<Counters> untraced;
  for (const PassOutcome& p : passes) {
    if (!p.traced) untraced.push_back(p.counts);
  }
  const auto throughput = [&](std::int64_t Counters::*work, double Counters::*busy) {
    return rate(untraced, gate.reference, [&](const Counters& k) {
      return std::make_pair(static_cast<double>(k.*work), k.*busy);
    });
  };
  return {
      {"wall_s", median(walls(passes, false)), "s"},
      {"setup_s", median(setups), "s"},
      {"sat_queries_per_s", throughput(&Counters::sat_queries, &Counters::sat_s), "1/s"},
      {"injections_per_s", throughput(&Counters::injections, &Counters::sim_s), "1/s"},
      {"campaign_runs_per_s", throughput(&Counters::campaign_runs, &Counters::campaign_s), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

double ratio(std::int64_t part, std::int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

std::vector<Metric> per_layer_metrics(const std::vector<PassOutcome>& passes,
                                      const GateResult& gate, std::int64_t attempted,
                                      std::int64_t failed) {
  std::vector<Metric> metrics;
  for (const char* span : kLayerSpans) {
    std::vector<double> values;
    for (const PassOutcome& p : passes) {
      if (!p.traced) continue;
      const auto it = p.self_s.find(span);
      values.push_back(it == p.self_s.end() ? 0.0 : it->second);
    }
    metrics.push_back({time_metric(span), median(values), "s"});
  }
  const Counters& c = passes.front().counts;
  const auto count = [&](const char* name, std::int64_t value) {
    metrics.push_back({name, static_cast<double>(value), "count"});
  };
  metrics.push_back({"frontends.bytes", static_cast<double>(c.frontends_bytes), "bytes"});
  count("fsm.machines", c.fsm_machines);
  count("core.cells", c.core_cells);
  count("core.mds_xor_gates", c.core_mds_xor_gates);
  count("redundancy.cells", c.redundancy_cells);
  count("synth.gates", c.synth_gates);
  metrics.push_back({"synth.area_ge", c.synth_area_ge, "GE"});
  count("synth.upsized", c.synth_upsized);
  count("synfi.sat_queries", c.sat_queries);
  count("synfi.sat_exploitable", c.sat_exploitable);
  count("synfi.injections", c.injections);
  count("synfi.sim_exploitable", c.sim_exploitable);
  metrics.push_back({"synfi.lanes", ratio(c.sim_lanes, c.sim_runs), "count"});
  count("sim.campaign_runs", c.campaign_runs);
  count("sim.hijacked", c.campaign_hijacked);
  count("sim.detected", c.campaign_detected);
  metrics.push_back({"sim.effective_ratio", ratio(c.campaign_effective, c.campaign_runs), "ratio"});
  count("sweep.records", c.records);
  metrics.push_back({"trace.overhead_s",
                     median(walls(passes, true)) - median(walls(passes, false)), "s"});
  count("verdict_mismatches", gate.mismatches);
  metrics.push_back({"failed_ratio", ratio(failed, attempted), "ratio"});
  return metrics;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "kfault_sat") {
    workload = make_kfault_sat(options.seed);
  } else if (options.workload == "kfault_sim") {
    workload = make_kfault_sim(options.seed);
  } else if (options.workload == "design_flow") {
    workload = make_design_flow(options.seed, options.root);
  } else {
    usage("unknown workload " + options.workload);
  }
  fs::create_directories(options.out);
  const std::string stem =
      (fs::path(options.out) / (options.workload + "-seed" + std::to_string(options.seed) +
                                (options.trace ? "-trace1" : "-trace0")))
          .string();
  Tracer tracer;
  Runner runner(*workload, tracer, stem + ".store.jsonl");

  // Set-ups on their own first, at least five and for at least a second,
  // so that a set-up of a few milliseconds still gets a steady median (they
  // also warm the allocator and page cache). Every pass's own set-up adds to
  // the same sample.
  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < 5 || seconds_since(setup_start) < 1.0) {
    setups.push_back(runner.setup_only());
  }

  // Passes until the time is spent, stopping early rather than overrunning
  // by more than half a pass: at least three untraced ones, or with tracing
  // at least one untraced/traced pair, alternating. Untraced runs take the
  // reference samples (Workload::sample) between passes, a third of the run
  // apart, so they meet the same host as the passes; at least three in all.
  std::vector<PassOutcome> passes;
  GateResult gate;
  bool sampling = !options.trace;
  int samples = 0;
  const Clock::time_point start = Clock::now();
  const std::size_t min_passes = options.trace ? 2 : 3;
  while (passes.size() < min_passes ||
         seconds_since(start) + 0.5 * passes.back().wall_s < options.seconds) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    passes.push_back(runner.pass(traced));
    if (!passes.back().traced) setups.push_back(passes.back().setup_s);
    if (sampling && seconds_since(start) >= samples * options.seconds / 3.0) {
      sampling = workload->sample(gate);
      ++samples;
    }
  }
  while (sampling && samples < 3) {
    workload->sample(gate);
    ++samples;
  }
  const double rss_mb = peak_rss_mb();

  // Correctness gate, outside every timed region.
  workload->gate(passes.front().records, gate);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const PassOutcome& p : passes) {
    attempted += p.counts.jobs;
    failed += p.counts.failed;
    gate.expect(same_records(p.records, passes.front().records),
                "verdicts differ between passes");
    gate.expect(same_counts(p.counts, passes.front().counts), "layer counts differ between passes");
    gate.expect(same_records(p.reloaded, p.records), "reloaded store differs from the appends");
  }

  const std::vector<Metric> metrics =
      options.trace ? per_layer_metrics(passes, gate, attempted, failed)
                    : end_to_end_metrics(passes, setups, gate, rss_mb);
  const auto traced = std::count_if(passes.begin(), passes.end(),
                                    [](const PassOutcome& p) { return p.traced; });

  // Report: host, paper fidelity, a readable table, then the result line.
  const std::string host = host_json();
  std::ostringstream fidelity;
  fidelity << "[";
  for (std::size_t i = 0; i < gate.fidelity.size(); ++i) {
    const Fidelity& f = gate.fidelity[i];
    fidelity << (i > 0 ? "," : "") << "{\"name\":" << json_string(f.name)
             << ",\"value\":" << json_number(f.value) << ",\"paper\":" << json_number(f.paper)
             << ",\"unit\":" << json_string(f.unit) << "}";
  }
  fidelity << "]";
  std::ostringstream metric_json;
  metric_json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    metric_json << (i > 0 ? "," : "") << json_string(metrics[i].name)
                << ":{\"value\":" << json_number(metrics[i].value)
                << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  metric_json << "}";
  const bool correct = gate.mismatches == 0;

  std::printf("{\"host\":%s}\n", host.c_str());
  std::printf("{\"fidelity\":%s}\n", fidelity.str().c_str());
  std::printf("workload %s seed %llu: %zu passes (%zu traced), %lld jobs, %lld failed, "
              "%lld verdict mismatches\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              passes.size(), static_cast<std::size_t>(traced), static_cast<long long>(attempted),
              static_cast<long long>(failed), static_cast<long long>(gate.mismatches));
  {
    std::vector<double> sorted_setups = setups;
    std::sort(sorted_setups.begin(), sorted_setups.end());
    std::printf("  set-up: %zu samples, min %.4f s, median %.4f s, max %.4f s\n",
                sorted_setups.size(), sorted_setups.front(), median(sorted_setups),
                sorted_setups.back());
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::printf("  pass %zu%s: wall %.4f s, setup %.4f s\n", i,
                passes[i].traced ? " (traced)" : "", passes[i].wall_s, passes[i].setup_s);
  }
  for (const Fidelity& f : gate.fidelity) {
    std::printf("  fidelity %-44s %12.4g %-4s (paper %g)\n", f.name.c_str(), f.value,
                f.unit.c_str(), f.paper);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  {
    std::ofstream out(stem + ".result.json");
    out << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
        << ",\"seconds\":" << json_number(options.seconds) << ",\"host\":" << host
        << ",\"passes\":" << passes.size() << ",\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"fidelity\":" << fidelity.str() << ",\"metrics\":" << metric_json.str() << "}\n";
  }
  if (options.trace) tracer.write_chrome_trace(stem + ".chrome_trace.json");

  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metric_json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  scfi::set_log_level(scfi::LogLevel::kWarn);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scfi_perfbench: %s\n", e.what());
    return 1;
  }
}
