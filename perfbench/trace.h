// Span recorder for the benchmark program.
//
// Every call the benchmark makes into a library layer is wrapped in a Span. When
// tracing is off a Span costs one branch; when it is on, the span (name,
// start, end, parent span, job id) is appended to an in-memory list that is
// written out as a Chrome trace-event file when the run ends. A layer's self
// time is its span's duration minus the part covered by its child spans.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     ///< index into the span list, -1 for a root span
  int job = -1;        ///< the input (module) the span works for, -1 for none
  int pass = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_pass(int pass) { pass_ = pass; }

  int begin(const char* name, int job) {
    SpanRecord span;
    span.name = name;
    span.start = std::chrono::duration<double>(Clock::now() - origin_).count();
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job;
    span.pass = pass_;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    open_.pop_back();
  }

  /// Self time summed per span name over the spans of one pass.
  std::map<std::string, double> self_times(int pass) const;

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microseconds), readable in Perfetto or chrome://tracing.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  int pass_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int job = -1)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.begin(name, job) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
