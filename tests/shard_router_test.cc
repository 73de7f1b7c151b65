// Tests for the sharded serving layer: domain-affinity routing, the
// graceful-degradation ladder, chaos kills with failover, and the
// deterministic-replay + no-lost-admitted-job acceptance criteria audited
// over the router journal. Lives in its own binary (labels
// "concurrency;shard") so the TSan CI stage and the chaos fault registry
// stay isolated from the main suite.

#include "service/shard_router.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/circuit_breaker.h"
#include "service/shard.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/run_journal.h"

namespace tabbench {
namespace {

class ShardRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = std::make_unique<testing::TinyDb>(testing::TinyDb::Make(2000, 20));
  }
  static void TearDownTestSuite() { tiny_.reset(); }
  static Database* db() { return tiny_->db.get(); }
  static std::unique_ptr<testing::TinyDb> tiny_;

  static constexpr const char* kGrouped =
      "SELECT p.city, COUNT(*) FROM people p WHERE p.dept = 3 "
      "GROUP BY p.city";

  /// Fresh directory for a router's journals.
  static std::string JournalDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "shard_router_" + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
  }

  /// Disables every ambient health signal so only the transitions a test
  /// drives explicitly (kills, stalls, probes) move the state machine.
  static void DisableAmbientSignals(ShardHealthThresholds* t) {
    t->degrade_p95_seconds = -1.0;
    t->degrade_queue_depth = 0;
    t->quarantine_p99_seconds = -1.0;
    t->quarantine_queue_depth = 0;
    t->quarantine_breaker_opens = 0;
    t->quarantine_watchdog_cancels = 0;
  }

  /// Smallest domain whose static home is the 1-based shard id `shard_id`.
  static uint64_t DomainHomedOn(const ShardRouter& router, uint32_t shard_id) {
    for (uint64_t d = 0; d < 4096; ++d) {
      if (router.HomeShardId(d) == shard_id) return d;
    }
    ADD_FAILURE() << "no domain homed on shard " << shard_id;
    return 0;
  }

  /// Spins (bounded) until shard `index`'s service holds at least `depth`
  /// accepted jobs — the router's dispatchers hand jobs to the shard
  /// asynchronously, so a test must see them land before reading the
  /// queue-depth health signal.
  static bool WaitForQueueDepth(ShardRouter* router, size_t index,
                                uint64_t depth) {
    for (int i = 0; i < 5000; ++i) {
      if (router->shard(index)->service()->in_flight() >= depth) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
};

/// Fires the stall-release token when the scope unwinds, so a failed ASSERT
/// can never leave a wedged shard deadlocking the router's destructor.
struct CancelOnExit {
  CancellationToken token;
  ~CancelOnExit() { token.RequestCancel(); }
};

std::unique_ptr<testing::TinyDb> ShardRouterTest::tiny_;

// ------------------------------------------------------------------ routing

TEST_F(ShardRouterTest, HomeShardStableAndDistributed) {
  ShardRouterOptions opts;
  opts.shards = 4;
  opts.shard.service.workers = 1;
  ShardRouter router(db(), opts);
  ASSERT_EQ(router.num_shards(), 4u);

  std::vector<int> per_shard(4, 0);
  for (uint64_t d = 0; d < 256; ++d) {
    const uint32_t home = router.HomeShardId(d);
    ASSERT_GE(home, 1u);
    ASSERT_LE(home, 4u);
    // Stable: the hash is part of the deterministic-replay contract.
    EXPECT_EQ(router.HomeShardId(d), home);
    // Unseen domains report their home as the current assignment.
    EXPECT_EQ(router.DomainShardId(d), home);
    ++per_shard[home - 1];
  }
  for (int n : per_shard) EXPECT_GT(n, 0);
}

TEST_F(ShardRouterTest, ServesAcrossDomainsWithAffinity) {
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.shard.service.workers = 2;
  ShardRouter router(db(), opts);

  std::vector<std::future<Result<QueryResult>>> futs;
  for (int i = 0; i < 16; ++i) {
    SubmitOptions so;
    so.domain = static_cast<uint64_t>(i % 4);
    futs.push_back(router.Submit(kGrouped, so));
  }
  for (auto& f : futs) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->failed);
  }
  const RouterStats rs = router.stats();
  EXPECT_EQ(rs.submitted, 16u);
  EXPECT_EQ(rs.completed, 16u);
  EXPECT_EQ(rs.rejected, 0u);
  EXPECT_EQ(rs.shed, 0u);
  // Healthy run: every domain still sits on its home shard.
  for (uint64_t d = 0; d < 4; ++d) {
    EXPECT_EQ(router.DomainShardId(d), router.HomeShardId(d));
  }
}

TEST_F(ShardRouterTest, RetryAfterHintParses) {
  EXPECT_EQ(RetryAfterHintSeconds(Status::OK()), 0.0);
  EXPECT_EQ(RetryAfterHintSeconds(Status::Unavailable("busy")), 0.0);
  EXPECT_DOUBLE_EQ(RetryAfterHintSeconds(Status::Unavailable(
                       "shard 2 degraded; retry_after_seconds=0.250000")),
                   0.25);
}

TEST_F(ShardRouterTest, CapacityRejectionCarriesRetryHint) {
  ShardRouterOptions opts;
  opts.shards = 1;
  opts.shard.service.workers = 1;
  opts.max_in_flight = 1;
  DisableAmbientSignals(&opts.shard.health);
  ShardRouter router(db(), opts);

  // Wedge the only shard so the first admitted job cannot complete, then
  // overrun the router's in-flight cap.
  CancellationToken release;
  CancelOnExit unstall{release};
  TB_ASSERT_OK(router.StallShard(0, release));
  auto admitted = router.Submit(kGrouped);
  auto bounced = router.Submit(kGrouped).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsUnavailable()) << bounced.status().ToString();
  EXPECT_GT(RetryAfterHintSeconds(bounced.status()), 0.0);
  EXPECT_EQ(router.stats().rejected, 1u);

  release.RequestCancel();
  auto r = admitted.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// ------------------------------------------------------------ ladder step 1

TEST_F(ShardRouterTest, DegradationLadderShedsLowPriorityThenRecovers) {
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.shard.service.workers = 1;
  DisableAmbientSignals(&opts.shard.health);
  // Re-enable exactly the queue-depth degrade signal.
  opts.shard.health.degrade_queue_depth = 1;
  ShardRouter router(db(), opts);
  const uint64_t dom = DomainHomedOn(router, 1);

  CancellationToken release;
  CancelOnExit unstall{release};
  TB_ASSERT_OK(router.StallShard(0, release));
  SubmitOptions so;
  so.domain = dom;
  std::vector<std::future<Result<QueryResult>>> queued;
  queued.push_back(router.Submit(kGrouped, so));
  queued.push_back(router.Submit(kGrouped, so));
  ASSERT_TRUE(WaitForQueueDepth(&router, 0, 2));
  router.Tick();
  ASSERT_EQ(router.shard_health(0), ShardHealth::kDegraded);
  EXPECT_GE(router.stats().degrades, 1u);

  // Ladder step 1: the degraded shard sheds priority-0 (background) load
  // with a machine-readable retry hint, while default-priority load is
  // still admitted.
  SubmitOptions background = so;
  background.priority = 0;
  auto shed = router.Submit(kGrouped, background).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_GT(RetryAfterHintSeconds(shed.status()), 0.0);
  EXPECT_EQ(router.stats().shed, 1u);
  queued.push_back(router.Submit(kGrouped, so));

  release.RequestCancel();
  for (auto& f : queued) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  router.Tick();
  EXPECT_EQ(router.shard_health(0), ShardHealth::kHealthy);
  EXPECT_GE(router.stats().recoveries, 1u);
}

// ------------------------------------------------------------ chaos + audit

TEST_F(ShardRouterTest, KillFailsOverQueuedJobAndReroutesDomain) {
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.shard.service.workers = 1;
  DisableAmbientSignals(&opts.shard.health);
  opts.shard.health.quarantine_cooldown_seconds = 3600.0;  // stay down
  ShardRouter router(db(), opts);
  const uint64_t dom = DomainHomedOn(router, 1);

  CancellationToken release;
  CancelOnExit unstall{release};
  TB_ASSERT_OK(router.StallShard(0, release));
  SubmitOptions so;
  so.domain = dom;
  auto stuck = router.Submit(kGrouped, so);
  ASSERT_TRUE(WaitForQueueDepth(&router, 0, 1));
  router.KillShard(0);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kQuarantined);
  EXPECT_GE(router.shard(0)->kill_epoch(), 1u);

  // The admitted job is never lost: the kill cancels its attempt, the
  // router fails it over to the surviving shard, and the future resolves
  // with a real result.
  release.RequestCancel();
  auto r = stuck.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // New load for the domain re-routes off the dead shard.
  auto rerouted = router.Submit(kGrouped, so).get();
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  EXPECT_EQ(router.DomainShardId(dom), 2u);
  const RouterStats rs = router.stats();
  EXPECT_EQ(rs.kills, 1u);
  EXPECT_GE(rs.reroutes, 1u);
  EXPECT_EQ(rs.completed, rs.submitted);
}

TEST_F(ShardRouterTest, RouteFaultBouncesSubmissionAtTheDoor) {
  FaultRegistry::Global().DisarmAll();
  TB_ASSERT_OK(
      FaultRegistry::Global().ArmFromString("service.shard.route=unavailable@once"));
  ShardRouterOptions opts;
  opts.shards = 1;
  opts.shard.service.workers = 1;
  ShardRouter router(db(), opts);
  auto bounced = router.Submit(kGrouped).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsUnavailable()) << bounced.status().ToString();
  EXPECT_EQ(router.stats().rejected, 1u);
  // The once-trigger has fired; the next submission sails through.
  auto r = router.Submit(kGrouped).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  FaultRegistry::Global().DisarmAll();
}

/// One full chaos run with a fixed fault schedule and a manual clock; the
/// deterministic-replay acceptance check runs it twice and compares the
/// decision streams.
struct ChaosRun {
  std::vector<JournalServiceEvent> decisions;
  RouterStats stats;
  std::string dir;
};

TEST_F(ShardRouterTest, ChaosKillReplaysDeterministicallyWithNoLostJobs) {
  auto run_once = [&](const std::string& tag) {
    ManualServiceClock clock;
    ShardRouterOptions opts;
    opts.shards = 2;
    opts.shard.service.workers = 1;
    DisableAmbientSignals(&opts.shard.health);
    opts.shard.health.quarantine_cooldown_seconds = 10.0;
    opts.shard.health.readmit_probe_quota = 2;
    opts.clock = &clock;
    opts.journal_dir = JournalDir(tag);
    ShardRouter router(db(), opts);
    const uint64_t da = DomainHomedOn(router, 1);
    const uint64_t dbm = DomainHomedOn(router, 2);

    // Fixed fault schedule: the 5th routing decision chaos-kills the
    // submission's currently assigned shard. Submissions are serialized
    // (each future is waited before the next Submit), so the @nth counter
    // advances identically on every run.
    FaultRegistry::Global().DisarmAll();
    const Status armed = FaultRegistry::Global().ArmFromString(
        "service.shard.quarantine=unavailable@nth:5");
    EXPECT_TRUE(armed.ok()) << armed.ToString();

    auto wait_ok = [&](uint64_t domain) {
      SubmitOptions so;
      so.domain = domain;
      auto r = router.Submit(kGrouped, so).get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    };
    // 1..4 warm both domains; 5 (da) fires the kill on shard 1 and
    // re-routes da onto shard 2 in the same decision.
    wait_ok(dbm);
    wait_ok(da);
    wait_ok(dbm);
    wait_ok(da);
    wait_ok(da);
    EXPECT_EQ(router.shard_health(0), ShardHealth::kQuarantined);
    EXPECT_EQ(router.DomainShardId(da), 2u);
    wait_ok(dbm);
    wait_ok(da);

    // Cooldown elapses only when the manual clock says so; the next
    // submissions open the probe window, burn the probe quota, and the
    // quarantined shard re-admits, after which da re-homes.
    clock.Advance(11.0);
    wait_ok(da);
    wait_ok(da);
    EXPECT_EQ(router.shard_health(0), ShardHealth::kHealthy);
    wait_ok(da);
    EXPECT_EQ(router.DomainShardId(da), 1u);

    FaultRegistry::Global().DisarmAll();
    ChaosRun out;
    out.decisions = router.decisions();
    out.stats = router.stats();
    out.dir = opts.journal_dir;
    router.Shutdown();
    return out;
  };

  const ChaosRun a = run_once("chaos_a");
  const ChaosRun b = run_once("chaos_b");

  // Re-routing decisions are identical across the two runs: same stream of
  // (sequence, kind, shard, domain, clock, detail).
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].sequence, b.decisions[i].sequence) << i;
    EXPECT_EQ(a.decisions[i].kind, b.decisions[i].kind) << i;
    EXPECT_EQ(a.decisions[i].shard_id, b.decisions[i].shard_id) << i;
    EXPECT_EQ(a.decisions[i].domain, b.decisions[i].domain) << i;
    EXPECT_EQ(a.decisions[i].clock_seconds, b.decisions[i].clock_seconds) << i;
    EXPECT_EQ(a.decisions[i].detail, b.decisions[i].detail) << i;
  }
  // The ladder walked exactly once: kill -> reroute -> probe window ->
  // probe quota -> readmit -> rehome.
  EXPECT_EQ(a.stats.kills, 1u);
  EXPECT_EQ(a.stats.reroutes, 1u);
  EXPECT_EQ(a.stats.probes, 2u);
  EXPECT_EQ(a.stats.readmissions, 1u);
  EXPECT_EQ(a.stats.rehomes, 1u);
  EXPECT_EQ(a.stats.requarantines, 0u);
  EXPECT_EQ(a.stats.submitted, 10u);
  EXPECT_EQ(a.stats.completed, 10u);

  // No lost admitted job, audited over the journal: every admitted ordinal
  // has exactly one terminal-outcome record, and the decision stream was
  // journaled alongside.
  for (const ChaosRun* run : {&a, &b}) {
    auto loaded = LoadRunJournal(run->dir + "/router.tbj");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const RunJournal& journal = *loaded;
    ASSERT_EQ(journal.records.size(), run->stats.submitted);
    std::set<uint32_t> ordinals;
    for (const JournalQueryRecord& rec : journal.records) {
      EXPECT_TRUE(ordinals.insert(rec.query_index).second)
          << "duplicate terminal record for ordinal " << rec.query_index;
      EXPECT_FALSE(rec.failed);
      EXPECT_GE(rec.shard_id, 1u);
      EXPECT_LE(rec.shard_id, 2u);
    }
    EXPECT_EQ(*ordinals.begin(), 0u);
    EXPECT_EQ(*ordinals.rbegin(), run->stats.submitted - 1);
    ASSERT_EQ(journal.events.size(), run->decisions.size());
    for (size_t i = 0; i < journal.events.size(); ++i) {
      EXPECT_EQ(journal.events[i].kind, run->decisions[i].kind) << i;
      EXPECT_EQ(journal.events[i].sequence, run->decisions[i].sequence) << i;
    }

    // Per-shard journals attribute every served query to their own shard.
    size_t shard_records = 0;
    for (uint32_t id = 1; id <= 2; ++id) {
      auto sloaded =
          LoadRunJournal(run->dir + "/shard-" + std::to_string(id) + ".tbj");
      ASSERT_TRUE(sloaded.ok()) << sloaded.status().ToString();
      const RunJournal& sj = *sloaded;
      EXPECT_FALSE(sj.records.empty()) << "shard " << id;
      for (const JournalQueryRecord& rec : sj.records) {
        EXPECT_EQ(rec.shard_id, id);
      }
      shard_records += sj.records.size();
    }
    EXPECT_EQ(shard_records, run->stats.submitted);
  }
}

// --------------------------------------------- satellite: races under TSan

TEST_F(ShardRouterTest, WatchdogForceCancelRacesShardKill) {
  // Watchdog force-cancels (tight wall budgets) racing a chaos kill: every
  // admitted job must still resolve its future and land exactly one
  // terminal record in the router journal. Run under TSan in CI.
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.shard.service.workers = 2;
  DisableAmbientSignals(&opts.shard.health);
  opts.shard.health.quarantine_cooldown_seconds = 3600.0;  // no readmission
  opts.max_in_flight = 0;                                  // admit everything
  opts.journal_dir = JournalDir("watchdog_race");
  ShardRouter router(db(), opts);

  constexpr int kJobs = 32;
  std::vector<std::future<Result<QueryResult>>> futs;
  futs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    SubmitOptions so;
    so.domain = static_cast<uint64_t>(i % 8);
    // Every third job gets a wall budget tight enough that the watchdog
    // can fire mid-attempt; the rest run unbounded.
    if (i % 3 == 0) so.job.wall_timeout_seconds = 0.002;
    futs.push_back(router.Submit(kGrouped, so));
    if (i == kJobs / 2) router.KillShard(0);
  }
  int resolved = 0;
  for (auto& f : futs) {
    // Terminal outcomes only: success, a watchdog Timeout, or a genuine
    // error — never a hung future.
    (void)f.get();
    ++resolved;
  }
  EXPECT_EQ(resolved, kJobs);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kQuarantined);

  const RouterStats rs = router.stats();
  EXPECT_EQ(rs.submitted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(rs.completed, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(rs.kills, 1u);
  router.Shutdown();
  TB_ASSERT_OK(router.journal_status());

  auto loaded = LoadRunJournal(opts.journal_dir + "/router.tbj");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RunJournal& journal = *loaded;
  ASSERT_EQ(journal.records.size(), static_cast<size_t>(kJobs));
  std::set<uint32_t> ordinals;
  for (const JournalQueryRecord& rec : journal.records) {
    EXPECT_TRUE(ordinals.insert(rec.query_index).second)
        << "duplicate terminal record for ordinal " << rec.query_index;
  }
}

TEST_F(ShardRouterTest, BreakerHalfOpenProbeStormGrantsExactQuota) {
  // Satellite: CircuitBreaker half-open probing under a concurrent
  // submission storm — exactly half_open_probes callers may claim a probe
  // slot, no matter how many race. Run under TSan in CI.
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_seconds = 0.05;
  opts.half_open_probes = 3;
  CircuitBreaker breaker(opts);
  constexpr uint64_t kDomain = 7;

  ASSERT_TRUE(breaker.Allow(kDomain));
  EXPECT_TRUE(breaker.RecordFailure(kDomain));  // trips open
  EXPECT_EQ(breaker.state(kDomain), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(kDomain));

  // Let the cooldown elapse, then storm the half-open domain.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  constexpr int kThreads = 16;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&breaker, &granted, opened] {
      opened.wait();
      if (breaker.Allow(kDomain)) ++granted;
    });
  }
  gate.set_value();
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), opts.half_open_probes);
  EXPECT_EQ(breaker.state(kDomain), CircuitBreaker::State::kHalfOpen);

  // The claimed probes succeed one by one; the quota-th closes the domain.
  for (int i = 0; i < opts.half_open_probes; ++i) {
    breaker.RecordSuccess(kDomain);
  }
  EXPECT_EQ(breaker.state(kDomain), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(kDomain));
  breaker.Abandon(kDomain);
}

}  // namespace
}  // namespace tabbench
