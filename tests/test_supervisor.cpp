// The sweep fleet contract: LeaseLedger folds the shared store's append
// traffic into latest-wins leases and sticky finals (salvaging the glued
// torn bytes a SIGKILL mid-append leaves), and FleetSupervisor drives N
// forked workers to the same bit-identical results as a single-process
// sweep — through worker crashes (respawned with backoff, leases released),
// poison jobs (quarantined as failed/"crashed" after max_crashes), wedged
// jobs (stopped heartbeat -> supervisor SIGKILL), and graceful SIGTERM
// drain (in-flight work finishes or is recorded cancelled; a later resume
// completes the matrix).
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "sweep/lease.h"
#include "sweep/result_store.h"
#include "sweep/supervisor.h"
#include "sweep/sweep.h"

namespace scfi::sweep {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// A cheap, deterministic SYNFI matrix: pwrmgr_fsm x levels {2,3} x kinds
/// {flip, stuck0} = 4 jobs, each a few milliseconds.
std::vector<SweepJob> synfi_matrix() {
  std::vector<synfi::SynfiConfig> configs(2);
  configs[0].wire_prefix = "mds_";
  configs[0].kind = sim::FaultKind::kTransientFlip;
  configs[1].wire_prefix = "mds_";
  configs[1].kind = sim::FaultKind::kStuckAt0;
  return expand_jobs("pwrmgr*", {2, 3}, configs);
}

/// Campaign jobs sized to take on the order of a second each — long enough
/// that a drain signal lands mid-flight deterministically.
std::vector<SweepJob> slow_campaign_matrix(int runs) {
  sim::CampaignConfig config;
  config.runs = runs;
  config.cycles = 24;
  config.seed = 7;
  return expand_campaign_jobs("pwrmgr*", {2, 3},
                              std::vector<sim::CampaignConfig>{config, [&] {
                                                                 sim::CampaignConfig c = config;
                                                                 c.fault.kinds = {
                                                                     sim::FaultKind::kStuckAt0};
                                                                 return c;
                                                               }()});
}

SweepResult ok_record(const SweepJob& job) {
  SweepResult result;
  result.job = job;
  result.report.sites = 1;
  result.report.injections = 1;
  return result;
}

TEST(LeaseLedger, StateMachineAndStickyFinals) {
  const std::string path = temp_path("ledger_states.jsonl");
  const std::vector<SweepJob> jobs = synfi_matrix();
  const std::string key = jobs[0].key();
  { std::ofstream create(path); }  // the ledger tails an existing file

  LeaseLedger ledger(path, 0);
  ledger.poll();
  const double now = lease_now();
  EXPECT_TRUE(ledger.state(key, now) == LeaseState::kUnclaimed);
  EXPECT_TRUE(ledger.claimable(key, now));
  EXPECT_FALSE(ledger.done(key));

  // A live lease blocks claiming; its expiry (or an explicit release)
  // reopens the key.
  ResultStore::append_line(path, make_lease(jobs[0], "w0.0", now + 60.0));
  ledger.poll();
  EXPECT_TRUE(ledger.state(key, now) == LeaseState::kLeased);
  EXPECT_FALSE(ledger.claimable(key, now));
  ASSERT_NE(ledger.latest_lease(key), nullptr);
  EXPECT_EQ(ledger.latest_lease(key)->worker, "w0.0");
  EXPECT_TRUE(ledger.state(key, now + 61.0) == LeaseState::kExpired);
  EXPECT_TRUE(ledger.claimable(key, now + 61.0));
  ResultStore::append_line(path, make_lease(jobs[0], "", 0.0));  // release
  ledger.poll();
  EXPECT_TRUE(ledger.state(key, now) == LeaseState::kExpired);
  EXPECT_TRUE(ledger.claimable(key, now));

  // A final is terminal — and sticky: a stale lease renewal landing after
  // it (a slow worker that lost a steal race) cannot resurrect the job.
  ResultStore::append_line(path, ok_record(jobs[0]));
  ledger.poll();
  EXPECT_TRUE(ledger.state(key, now) == LeaseState::kDone);
  EXPECT_FALSE(ledger.claimable(key, now));
  ResultStore::append_line(path, make_lease(jobs[0], "w1.0", now + 60.0));
  ledger.poll();
  EXPECT_TRUE(ledger.done(key));
  EXPECT_TRUE(ledger.state(key, now) == LeaseState::kDone);

  // Finals are latest-wins among themselves (a re-executed steal's record
  // replaces its twin) and enumerate in first-appearance order.
  SweepResult failed;
  failed.job = jobs[1];
  failed.status = JobStatus::kFailed;
  failed.error = "boom";
  ResultStore::append_line(path, failed);
  ResultStore::append_line(path, ok_record(jobs[1]));
  ledger.poll();
  ASSERT_NE(ledger.final_record(jobs[1].key()), nullptr);
  EXPECT_TRUE(ledger.final_record(jobs[1].key())->status == JobStatus::kOk);
  const std::vector<const SweepResult*> finals = ledger.finals();
  ASSERT_EQ(finals.size(), 2u);
  EXPECT_EQ(finals[0]->key(), key);
  EXPECT_EQ(finals[1]->key(), jobs[1].key());
}

TEST(LeaseLedger, BaselineOffsetSkipsPriorHistory) {
  const std::string path = temp_path("ledger_baseline.jsonl");
  const std::vector<SweepJob> jobs = synfi_matrix();
  ResultStore::append_line(path, ok_record(jobs[0]));  // prior run's record
  const std::uint64_t baseline = std::filesystem::file_size(path);
  ResultStore::append_line(path, ok_record(jobs[1]));  // this run's record

  LeaseLedger ledger(path, baseline);
  ledger.poll();
  EXPECT_FALSE(ledger.done(jobs[0].key()));  // pre-baseline: invisible
  EXPECT_TRUE(ledger.done(jobs[1].key()));
}

TEST(LeaseLedger, CarriesPartialTailAndSalvagesGluedRecords) {
  const std::string path = temp_path("ledger_tail.jsonl");
  const std::vector<SweepJob> jobs = synfi_matrix();
  const std::string full = ResultStore::to_line(ok_record(jobs[0]));

  // A concurrent append caught mid-write: the partial line is carried
  // until its newline arrives, never parsed early.
  {
    std::ofstream out(path, std::ios::app);
    out << full.substr(0, 25);
  }
  LeaseLedger ledger(path, 0);
  ledger.poll();
  EXPECT_FALSE(ledger.done(jobs[0].key()));
  {
    std::ofstream out(path, std::ios::app);
    out << full.substr(25) << "\n";
  }
  ledger.poll();
  EXPECT_TRUE(ledger.done(jobs[0].key()));

  // A SIGKILL between a worker's write and completion leaves torn bytes
  // the NEXT append glues a full record onto; the ledger re-parses from
  // the line's last record start instead of aborting.
  const std::string glued = ResultStore::to_line(ok_record(jobs[1]));
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"schema\":6,\"type\":\"syn" << glued << "\n";
  }
  ledger.poll();
  EXPECT_TRUE(ledger.done(jobs[1].key()));

  // Corruption with no salvageable record still throws: only a crash
  // shape is forgiven.
  {
    std::ofstream out(path, std::ios::app);
    out << "utter garbage, no record start\n";
  }
  EXPECT_THROW(ledger.poll(), ScfiError);
}

TEST(FleetSupervisor, ValidatesConfigStoreAndMatrix) {
  FleetConfig bad = FleetConfig{};
  bad.workers = 0;
  EXPECT_THROW(FleetSupervisor{bad}, ScfiError);
  bad = FleetConfig{};
  bad.max_crashes = 0;
  EXPECT_THROW(FleetSupervisor{bad}, ScfiError);
  bad = FleetConfig{};
  bad.heartbeat_timeout = 0.01;  // below the heartbeat interval
  EXPECT_THROW(FleetSupervisor{bad}, ScfiError);

  FleetSupervisor fleet{FleetConfig{}};
  // The store file IS the coordination medium: a path is mandatory.
  EXPECT_THROW(fleet.run(synfi_matrix(), ""), ScfiError);
  // A malformed matrix is rejected in the parent, before any fork.
  std::vector<SweepJob> jobs = synfi_matrix();
  jobs[0].variant = "warp-drive";
  EXPECT_THROW(fleet.run(jobs, temp_path("fleet_badmatrix.jsonl")), ScfiError);
}

TEST(FleetSupervisor, MatchesSingleProcessRunBitIdentically) {
  const std::vector<SweepJob> jobs = synfi_matrix();

  ResultStore single;
  SweepOrchestrator orchestrator{SweepConfig{}};
  orchestrator.run(jobs, single);

  const std::string path = temp_path("fleet_identical.jsonl");
  FleetConfig config;
  config.workers = 3;
  config.poll_interval = 0.01;
  config.heartbeat_interval = 0.05;
  FleetSupervisor fleet(config);
  const FleetStats stats = fleet.run(jobs, path);
  EXPECT_EQ(stats.executed, 4);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.unfinished, 0);
  EXPECT_EQ(stats.crashes, 0);
  EXPECT_FALSE(stats.drained);

  // The compacted store holds finals only, and the verdicts are
  // bit-identical to the single-process run (diff ignores timing, attempt
  // counts, and worker ids — the diagnostics allowed to differ).
  const ResultStore merged = ResultStore::load(path);  // strict load passes
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(ResultStore::diff(single, merged).empty());
}

TEST(FleetSupervisor, PoisonJobIsQuarantinedAndWorkerRespawned) {
  const std::vector<SweepJob> jobs = synfi_matrix();
  const std::string poison = jobs[0].key();

  const std::string path = temp_path("fleet_poison.jsonl");
  FleetConfig config;
  config.workers = 1;  // forces the crash -> respawn -> re-claim path
  config.max_crashes = 2;
  config.poll_interval = 0.01;
  config.heartbeat_interval = 0.05;
  config.respawn_backoff = BackoffPolicy{1.0, 2.0, 8.0};
  config.poison_key = poison;
  FleetSupervisor fleet(config);
  const FleetStats stats = fleet.run(jobs, path);

  // Two workers died on the poison key; the second death quarantined it.
  // The fleet still finished every other job and exited.
  EXPECT_EQ(stats.crashes, 2);
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.executed, 3);
  EXPECT_EQ(stats.unfinished, 0);
  EXPECT_GE(stats.respawns, 1);

  const ResultStore merged = ResultStore::load(path);
  ASSERT_EQ(merged.size(), 4u);
  const SweepResult* quarantined = merged.find(poison);
  ASSERT_NE(quarantined, nullptr);
  EXPECT_TRUE(quarantined->status == JobStatus::kFailed);
  EXPECT_EQ(quarantined->error, "crashed");
  EXPECT_EQ(quarantined->attempts, 2);

  // Resume (poison hook off) re-executes exactly the quarantined key and
  // converges the store to all-ok.
  FleetConfig retry = config;
  retry.poison_key = "";
  FleetSupervisor fleet2(retry);
  const FleetStats resumed = fleet2.run(jobs, path, /*resume=*/true);
  EXPECT_EQ(resumed.skipped, 3);
  EXPECT_EQ(resumed.executed, 1);
  EXPECT_EQ(resumed.failed, 0);
  const ResultStore healed = ResultStore::load(path);
  for (const SweepResult& record : healed.results()) {
    EXPECT_TRUE(record.status == JobStatus::kOk) << record.key();
  }
}

TEST(FleetSupervisor, WedgedJobIsReapedViaStoppedHeartbeat) {
  // One enormous campaign job (minutes of work) with a 0.2s wedge budget:
  // the worker's heartbeat goes silent, the supervisor SIGKILLs it, and
  // max_crashes=1 quarantines the job immediately — the fleet exits in
  // about a second instead of running the campaign to completion.
  sim::CampaignConfig huge;
  huge.runs = 50000000;
  huge.cycles = 24;
  const std::vector<SweepJob> jobs =
      expand_campaign_jobs("pwrmgr*", {2}, std::vector<sim::CampaignConfig>{huge});
  ASSERT_EQ(jobs.size(), 1u);

  const std::string path = temp_path("fleet_wedge.jsonl");
  FleetConfig config;
  config.workers = 1;
  config.max_crashes = 1;
  config.wedge_seconds = 0.2;
  config.heartbeat_interval = 0.05;
  config.heartbeat_timeout = 0.5;
  config.poll_interval = 0.01;
  FleetSupervisor fleet(config);
  const FleetStats stats = fleet.run(jobs, path);
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.failed, 1);
  const ResultStore merged = ResultStore::load(path);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.results()[0].error, "crashed");
}

TEST(FleetSupervisor, SigtermDrainsGracefullyAndResumeCompletes) {
  // ~1s-per-job campaigns; SIGTERM lands ~0.25s in, so the fleet is
  // mid-flight: claimed jobs are cancelled within the (short) grace and
  // recorded, unclaimed jobs stay unfinished, and nothing is torn — a
  // resumed fleet completes the matrix to all-ok.
  const std::vector<SweepJob> jobs = slow_campaign_matrix(500000);
  ASSERT_EQ(jobs.size(), 4u);

  const std::string path = temp_path("fleet_drain.jsonl");
  FleetConfig config;
  config.workers = 2;
  config.poll_interval = 0.01;
  config.heartbeat_interval = 0.05;
  config.drain_grace = 0.1;
  FleetSupervisor fleet(config);

  std::thread signaller([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    (void)::kill(::getpid(), SIGTERM);
  });
  const FleetStats stats = fleet.run(jobs, path);
  signaller.join();

  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.executed + stats.failed + stats.unfinished, 4);
  EXPECT_GT(stats.failed + stats.unfinished, 0);  // the drain cut real work

  // The drained store is clean (strict load, finals only) and resume
  // finishes the job matrix.
  const ResultStore after = ResultStore::load(path);
  FleetSupervisor fleet2(config);
  const FleetStats resumed = fleet2.run(jobs, path, /*resume=*/true);
  EXPECT_FALSE(resumed.drained);
  EXPECT_EQ(resumed.skipped + resumed.executed, 4);
  EXPECT_EQ(resumed.failed, 0);
  EXPECT_EQ(resumed.unfinished, 0);
  const ResultStore healed = ResultStore::load(path);
  ASSERT_EQ(healed.size(), 4u);
  for (const SweepResult& record : healed.results()) {
    EXPECT_TRUE(record.status == JobStatus::kOk) << record.key();
  }
}

}  // namespace
}  // namespace scfi::sweep
