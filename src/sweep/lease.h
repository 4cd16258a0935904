// The sweep fleet's job-claim protocol over the shared JSONL store.
//
// Fleet workers coordinate through nothing but the store file itself: a
// worker claims a job by appending a `leased` record (worker id +
// wall-clock deadline) and owns the job iff, after the append, the latest
// lease for that key is its own — O_APPEND makes concurrent appends
// serialize, so "latest wins" is a total order and doubles as the race
// arbiter. Work-stealing falls out of expiry: once a lease's deadline
// passes (or a zero-deadline release is appended) any worker may re-lease
// the key. Because every job's result is deterministic, a lost race or a
// stolen-then-finished-twice job costs only wasted work, never wrong
// results — the latest final record wins exactly like any other append.
//
// `LeaseLedger` is the incremental reader both sides poll: it tails the
// bytes appended after a baseline offset (the supervisor compacts the store
// at fleet start, so everything past the baseline belongs to this run) and
// folds complete lines into two latest-wins maps — in-flight leases and
// terminal finals. Finals are sticky for the run: once a key has an
// ok/failed record, a stale lease renewal landing after it (a slow worker
// that lost a steal race) cannot resurrect the job.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sweep/result_store.h"

namespace scfi::sweep {

/// Wall-clock now in fractional unix seconds (CLOCK_REALTIME): lease
/// deadlines must be comparable across worker processes, so the shared
/// clock is the system clock, not any per-process steady clock.
double lease_now();

/// The lease record a worker appends to claim `job` until `deadline` (unix
/// seconds). An empty worker with deadline 0 is an explicit release — the
/// supervisor appends one when it reaps a crashed holder, returning the job
/// to the pool without waiting for expiry.
SweepResult make_lease(const SweepJob& job, const std::string& worker, double deadline);

/// Classification of one job key in this run's ledger.
enum class LeaseState {
  kUnclaimed,  ///< no record this run: claimable
  kLeased,     ///< unexpired lease held by some worker
  kExpired,    ///< lease whose deadline passed or was released: claimable
  kDone,       ///< terminal ok/failed record exists this run
};

class LeaseLedger {
 public:
  /// Tails `path` starting at `baseline_offset` (bytes before it are a
  /// previous run's compacted history, not this run's protocol traffic).
  /// Offset 0 reads the whole file — the supervisor's final merge uses
  /// that to rebuild the store tolerantly after a crash-heavy run.
  LeaseLedger(std::string path, std::uint64_t baseline_offset);

  /// Reads any bytes appended since the last poll, folding complete lines
  /// into the ledger. A partial final line (a concurrent append caught
  /// mid-write) is carried until its newline arrives. A malformed
  /// COMPLETED line is first re-parsed from its last embedded record start
  /// ('{"schema":') — the one shape a SIGKILL mid-append leaves once the
  /// next worker's record glues onto the torn bytes — and only throws if
  /// that salvage fails too (real corruption).
  void poll();

  /// Latest lease appended for `key` this run, superseded or not; nullptr
  /// when none. Claim verification: after appending, a worker owns the job
  /// iff this is its own record and the key is not done.
  const SweepResult* latest_lease(const std::string& key) const;

  /// Terminal record for `key` this run (latest final wins), or nullptr.
  const SweepResult* final_record(const std::string& key) const;

  bool done(const std::string& key) const { return finals_.count(key) > 0; }

  LeaseState state(const std::string& key, double now) const;

  /// True when `state` is kUnclaimed or kExpired.
  bool claimable(const std::string& key, double now) const;

  /// Terminal records in first-appearance order — the supervisor's final
  /// compaction writes exactly these (leases are protocol traffic, not
  /// results, and are dropped from the compacted store).
  std::vector<const SweepResult*> finals() const;

 private:
  void fold(SweepResult record);

  std::string path_;
  std::uint64_t offset_;
  std::string carry_;  ///< bytes of a not-yet-newline-terminated tail line
  std::map<std::string, SweepResult> leases_;
  std::map<std::string, SweepResult> finals_;
  std::vector<std::string> final_order_;  ///< keys, first final appearance
};

}  // namespace scfi::sweep
