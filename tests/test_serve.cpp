// Serving layer: the virtual clock and deadlines, the circuit-breaker state
// machine, the batching policy, workload synthesis, and full end-to-end runs
// of the Server — clean, overloaded, deadline-starved, and under injected
// chaos. The determinism suites pin the core contract: same (config,
// workload, pool) must give identical admissions, retries, breaker
// transitions, and percentiles on the serial and parallel host engines.
// Every test pins its own fault config, so the ambient NESTPAR_FAULTS the
// `nestpar_faults` ctest entry exports cannot skew expectations.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/serve/batcher.h"
#include "src/serve/breaker.h"
#include "src/serve/pool.h"
#include "src/serve/server.h"
#include "src/simt/exec_policy.h"
#include "src/simt/fault.h"
#include "src/simt/virtual_clock.h"

namespace simt = nestpar::simt;
namespace serve = nestpar::serve;

namespace {

constexpr simt::ExecPolicy kSerial{simt::ExecMode::kSerial, 0};
constexpr simt::ExecPolicy kParallel{simt::ExecMode::kParallel, 4};

// Small pool + config sized so a full end-to-end run takes well under a
// second; tests override the fields they are about.
serve::PoolSpec tiny_pool_spec() {
  serve::PoolSpec p;
  p.num_graphs = 3;
  p.base_nodes = 256;
  p.scale = 0.2;
  p.seed = 0x5e12e;
  return p;
}

serve::ServeConfig tiny_config() {
  serve::ServeConfig cfg;
  cfg.num_shards = 3;
  cfg.queue_capacity = 6;
  cfg.seed = 2026;
  cfg.faults = simt::FaultConfig{};  // Pinned: no injection unless a test asks.
  return cfg;
}

serve::ServeStats run_once(const serve::ServeConfig& cfg,
                           const serve::SubgraphPool& pool, int requests,
                           double qps, const simt::ExecPolicy& policy,
                           std::vector<serve::Completion>* completions_out =
                               nullptr) {
  const std::vector<serve::Request> workload =
      serve::make_open_loop_workload(pool, cfg, requests, qps);
  serve::Server server(cfg, pool, policy);
  const serve::ServeStats stats = server.run(workload);
  if (completions_out != nullptr) *completions_out = server.completions();
  return stats;
}

void expect_accounting(const serve::ServeStats& s) {
  EXPECT_EQ(s.ok + s.expired + s.shed, s.submitted);
  EXPECT_EQ(s.wrong, 0u);
}

TEST(VirtualClock, AdvancesMonotonically) {
  simt::VirtualClock clock;
  EXPECT_EQ(clock.now_us(), 0.0);
  clock.advance_to(15.0);
  EXPECT_EQ(clock.now_us(), 15.0);
  clock.advance_to(15.0);  // No-op move to "now" is legal.
  EXPECT_EQ(clock.now_us(), 15.0);
}

TEST(VirtualClock, RefusesToRewind) {
  simt::VirtualClock clock;
  clock.advance_to(100.0);
  EXPECT_THROW(clock.advance_to(99.0), std::logic_error);
  EXPECT_EQ(clock.now_us(), 100.0);
}

TEST(VirtualClock, DeadlineArithmetic) {
  const simt::Deadline d{100.0, 50.0};
  EXPECT_EQ(d.expiry_us(), 150.0);
  EXPECT_FALSE(d.expired_at(150.0));  // Inclusive boundary.
  EXPECT_TRUE(d.expired_at(150.5));
  EXPECT_EQ(d.remaining_us(120.0), 30.0);
  EXPECT_LT(d.remaining_us(200.0), 0.0);
}

TEST(CircuitBreaker, TripsAtThresholdAndLogsTransitions) {
  serve::BreakerConfig bc;
  bc.window = 8;
  bc.min_samples = 4;
  bc.trip_threshold = 0.5;
  bc.cooldown_us = 1000.0;
  serve::CircuitBreaker br(bc);

  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);
  EXPECT_FALSE(br.record_attempt(true, 10.0));
  EXPECT_FALSE(br.record_attempt(false, 20.0));
  EXPECT_FALSE(br.record_attempt(true, 30.0));
  // Fourth sample reaches min_samples with 3/4 faulted: trip.
  EXPECT_TRUE(br.record_attempt(true, 40.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(br.open_until_us(), 1040.0);
  EXPECT_EQ(br.trips(), 1);
  EXPECT_FALSE(br.admits());

  ASSERT_EQ(br.transitions().size(), 1u);
  EXPECT_EQ(br.transitions()[0].from, serve::BreakerState::kClosed);
  EXPECT_EQ(br.transitions()[0].to, serve::BreakerState::kOpen);
  EXPECT_EQ(br.transitions()[0].time_us, 40.0);
}

TEST(CircuitBreaker, HalfOpenProbeDecidesRecovery) {
  serve::BreakerConfig bc;
  bc.window = 8;
  bc.min_samples = 2;
  bc.trip_threshold = 0.5;
  bc.cooldown_us = 100.0;
  serve::CircuitBreaker br(bc);

  br.record_attempt(true, 0.0);
  ASSERT_TRUE(br.record_attempt(true, 1.0));

  // Cooldown not yet over: stale wakeups are ignored.
  EXPECT_FALSE(br.try_begin_probe(50.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_TRUE(br.try_begin_probe(101.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kHalfOpen);
  EXPECT_TRUE(br.admits());

  // Failed probe re-opens (counts as a trip); successful probe closes.
  EXPECT_TRUE(br.record_attempt(true, 102.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 2);
  ASSERT_TRUE(br.try_begin_probe(202.0 + bc.cooldown_us));
  EXPECT_FALSE(br.record_attempt(false, 303.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);

  // closed->open, open->half, half->open, open->half, half->closed.
  EXPECT_EQ(br.transitions().size(), 5u);
}

// The full recovery cycle, pinned by transition *timestamps*: trip at the
// faulting sample, probe only after the cooldown elapses, close at the
// probe's success time — and a failed half-open probe re-trips with a fresh
// cooldown anchored at the failure, not the original trip.
TEST(CircuitBreaker, TransitionTimestampsThroughRecoveryCycle) {
  serve::BreakerConfig bc;
  bc.window = 8;
  bc.min_samples = 2;
  bc.trip_threshold = 0.5;
  bc.cooldown_us = 500.0;
  serve::CircuitBreaker br(bc);

  br.record_attempt(true, 10.0);
  ASSERT_TRUE(br.record_attempt(true, 25.0));  // Trip at t=25.
  EXPECT_EQ(br.open_until_us(), 525.0);

  // Half-open exactly when asked after the cooldown boundary.
  EXPECT_FALSE(br.try_begin_probe(524.0));
  ASSERT_TRUE(br.try_begin_probe(526.0));

  // Failed probe: re-trip at the probe's own failure time, new cooldown
  // anchored there.
  ASSERT_TRUE(br.record_attempt(true, 530.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(br.open_until_us(), 1030.0);
  EXPECT_EQ(br.trips(), 2);

  // Second probe succeeds: closed at the success time.
  ASSERT_TRUE(br.try_begin_probe(1031.0));
  EXPECT_FALSE(br.record_attempt(false, 1040.0));
  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);

  const auto& ts = br.transitions();
  ASSERT_EQ(ts.size(), 5u);
  // closed->open @25, open->half @526, half->open @530, open->half @1031,
  // half->closed @1040.
  EXPECT_EQ(ts[0].from, serve::BreakerState::kClosed);
  EXPECT_EQ(ts[0].to, serve::BreakerState::kOpen);
  EXPECT_EQ(ts[0].time_us, 25.0);
  EXPECT_EQ(ts[1].from, serve::BreakerState::kOpen);
  EXPECT_EQ(ts[1].to, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(ts[1].time_us, 526.0);
  EXPECT_EQ(ts[2].from, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(ts[2].to, serve::BreakerState::kOpen);
  EXPECT_EQ(ts[2].time_us, 530.0);
  EXPECT_EQ(ts[3].from, serve::BreakerState::kOpen);
  EXPECT_EQ(ts[3].to, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(ts[3].time_us, 1031.0);
  EXPECT_EQ(ts[4].from, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(ts[4].to, serve::BreakerState::kClosed);
  EXPECT_EQ(ts[4].time_us, 1040.0);
}

TEST(Batcher, FullBatchDispatchesImmediately) {
  serve::ServeConfig cfg = tiny_config();
  cfg.batch_max = 4;
  const serve::BatchDecision d =
      serve::Batcher::decide(9, /*oldest_enqueue_us=*/0.0, cfg,
                             /*now_us=*/1.0, /*probe=*/false);
  EXPECT_TRUE(d.dispatch);
  EXPECT_EQ(d.take, 4);
}

TEST(Batcher, PartialBatchLingersThenFlushes) {
  serve::ServeConfig cfg = tiny_config();
  cfg.batch_max = 8;
  cfg.batch_linger_us = 200.0;
  // Window still open: hold, and report when it closes.
  serve::BatchDecision d = serve::Batcher::decide(3, 100.0, cfg, 150.0, false);
  EXPECT_FALSE(d.dispatch);
  EXPECT_EQ(d.wake_us, 300.0);
  // Window closed: flush everything queued.
  d = serve::Batcher::decide(3, 100.0, cfg, 300.0, false);
  EXPECT_TRUE(d.dispatch);
  EXPECT_EQ(d.take, 3);
}

TEST(Batcher, ProbeTakesExactlyOne) {
  serve::ServeConfig cfg = tiny_config();
  const serve::BatchDecision d =
      serve::Batcher::decide(5, 0.0, cfg, 0.0, /*probe=*/true);
  EXPECT_TRUE(d.dispatch);
  EXPECT_EQ(d.take, 1);
}

TEST(ServeWorkload, DeterministicAndOrdered) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  const serve::ServeConfig cfg = tiny_config();
  const std::vector<serve::Request> a =
      serve::make_open_loop_workload(pool, cfg, 64, 4000.0);
  const std::vector<serve::Request> b =
      serve::make_open_loop_workload(pool, cfg, 64, 4000.0);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(b.size(), 64u);
  bool saw_non_sssp = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].graph_id, b[i].graph_id);
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].deadline.arrival_us, b[i].deadline.arrival_us);
    EXPECT_EQ(a[i].deadline.budget_us, cfg.deadline_us);
    EXPECT_LT(static_cast<int>(a[i].graph_id), pool.size());
    if (i > 0) {
      EXPECT_GT(a[i].deadline.arrival_us, a[i - 1].deadline.arrival_us);
    }
    if (a[i].kind != serve::QueryKind::kSssp) saw_non_sssp = true;
  }
  EXPECT_TRUE(saw_non_sssp) << "kind mix collapsed to a single query type";
}

TEST(ServeStatsHelpers, NearestRankPercentile) {
  EXPECT_EQ(serve::percentile_nearest_rank({}, 0.99), 0.0);
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_EQ(serve::percentile_nearest_rank(v, 0.50), 20.0);
  EXPECT_EQ(serve::percentile_nearest_rank(v, 0.75), 30.0);
  EXPECT_EQ(serve::percentile_nearest_rank(v, 0.99), 40.0);
  EXPECT_EQ(serve::percentile_nearest_rank({7.0}, 0.50), 7.0);
}

TEST(ServeEndToEnd, CleanRunCompletesEverythingOk) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  const serve::ServeConfig cfg = tiny_config();
  std::vector<serve::Completion> completions;
  const serve::ServeStats s =
      run_once(cfg, pool, 60, 4000.0, kSerial, &completions);
  expect_accounting(s);
  EXPECT_EQ(s.ok, 60u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.breaker_trips, 0u);
  EXPECT_EQ(s.faults_injected, 0u);
  EXPECT_GT(s.p50_us, 0.0);
  EXPECT_GE(s.p99_us, s.p95_us);
  EXPECT_GE(s.p95_us, s.p50_us);
  EXPECT_GE(s.max_us, s.p99_us);
  ASSERT_EQ(completions.size(), 60u);
  for (const serve::Completion& c : completions) {
    EXPECT_EQ(c.status, serve::RequestStatus::kOk);
    EXPECT_TRUE(c.correct);
    EXPECT_EQ(c.attempts, 1);
    EXPECT_GE(c.shard, 0);
  }
}

TEST(ServeEndToEnd, OverloadShedsOldestFirstAndStaysAccounted) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.queue_capacity = 4;
  const serve::ServeStats s = run_once(cfg, pool, 80, 64000.0, kSerial);
  expect_accounting(s);
  EXPECT_GT(s.shed, 0u) << "8x-style overload with tiny queues must shed";
  EXPECT_GT(s.ok, 0u) << "shedding must protect, not replace, service";
}

TEST(ServeEndToEnd, StarvedDeadlineExpiresTyped) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.deadline_us = 1.0;  // No query can finish inside 1us.
  std::vector<serve::Completion> completions;
  const serve::ServeStats s =
      run_once(cfg, pool, 20, 4000.0, kSerial, &completions);
  expect_accounting(s);
  EXPECT_EQ(s.ok, 0u);
  EXPECT_GT(s.expired, 0u);
  for (const serve::Completion& c : completions) {
    EXPECT_NE(c.status, serve::RequestStatus::kOk);
  }
}

TEST(ServeFaults, ChaosRetriesButNeverServesWrongData) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.faults = simt::FaultConfig::parse("launch=0.05,host=0.05");
  const serve::ServeStats s = run_once(cfg, pool, 80, 4000.0, kSerial);
  expect_accounting(s);
  EXPECT_GT(s.faults_injected, 0u) << "5% injection over 80 queries was silent";
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.ok, 0u);
  // Every retry is preceded by a failed attempt, and every Ok costs one
  // successful attempt — shed/expired queries may never execute at all.
  EXPECT_GE(s.attempts, s.ok + s.retries);
}

TEST(ServeFaults, SaturatedFaultsTripBreakersAndShedOrExpire) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.faults = simt::FaultConfig::parse("host=0.6");
  const serve::ServeStats s = run_once(cfg, pool, 80, 6000.0, kSerial);
  expect_accounting(s);
  EXPECT_GT(s.breaker_trips, 0u);
  EXPECT_GT(s.shed + s.expired, 0u)
      << "a mostly-faulting fleet must degrade, not hang";
}

TEST(ServeFaults, HedgedRetryMovesToSiblingShard) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.faults = simt::FaultConfig::parse("host=0.10");
  std::vector<serve::Completion> hedged_on;
  const serve::ServeStats with_hedge =
      run_once(cfg, pool, 80, 4000.0, kSerial, &hedged_on);
  EXPECT_GT(with_hedge.hedges, 0u);
  bool saw_hedged = false;
  for (const serve::Completion& c : hedged_on) saw_hedged |= c.hedged;
  EXPECT_TRUE(saw_hedged);

  cfg.hedge = false;
  const serve::ServeStats without = run_once(cfg, pool, 80, 4000.0, kSerial);
  expect_accounting(without);
  EXPECT_EQ(without.hedges, 0u);
}

// The core contract: serial and parallel host engines replay the identical
// serving timeline — same admissions, retries, trips, and percentiles.
void expect_same_stats(const serve::ServeStats& a, const serve::ServeStats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.wrong, b.wrong);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p95_us, b.p95_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.mean_us, b.mean_us);
  EXPECT_EQ(a.max_us, b.max_us);
  EXPECT_EQ(a.qps_ok, b.qps_ok);
  EXPECT_EQ(a.p99_queue_us, b.p99_queue_us);
  EXPECT_EQ(a.p99_batch_us, b.p99_batch_us);
  EXPECT_EQ(a.p99_exec_us, b.p99_exec_us);
  EXPECT_EQ(a.p99_retry_us, b.p99_retry_us);
}

void expect_same_completions(const std::vector<serve::Completion>& a,
                             const std::vector<serve::Completion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "completion " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "completion " << i;
    EXPECT_EQ(a[i].shard, b[i].shard) << "completion " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "completion " << i;
    EXPECT_EQ(a[i].hedged, b[i].hedged) << "completion " << i;
    EXPECT_EQ(a[i].finish_us, b[i].finish_us) << "completion " << i;
    EXPECT_EQ(a[i].latency_us, b[i].latency_us) << "completion " << i;
    EXPECT_EQ(a[i].queue_us, b[i].queue_us) << "completion " << i;
    EXPECT_EQ(a[i].batch_us, b[i].batch_us) << "completion " << i;
    EXPECT_EQ(a[i].exec_us, b[i].exec_us) << "completion " << i;
    EXPECT_EQ(a[i].retry_us, b[i].retry_us) << "completion " << i;
  }
}

TEST(ServeDeterminism, EnginesAgreeOnCleanRuns) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  const serve::ServeConfig cfg = tiny_config();
  std::vector<serve::Completion> cs;
  std::vector<serve::Completion> cp;
  const serve::ServeStats s = run_once(cfg, pool, 60, 5000.0, kSerial, &cs);
  const serve::ServeStats p = run_once(cfg, pool, 60, 5000.0, kParallel, &cp);
  expect_same_stats(s, p);
  expect_same_completions(cs, cp);
}

TEST(ServeDeterminism, EnginesAgreeUnderChaos) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.faults = simt::FaultConfig::parse("launch=0.05,host=0.08,seed=42");
  std::vector<serve::Completion> cs;
  std::vector<serve::Completion> cp;
  const serve::ServeStats s = run_once(cfg, pool, 80, 5000.0, kSerial, &cs);
  const serve::ServeStats p = run_once(cfg, pool, 80, 5000.0, kParallel, &cp);
  EXPECT_GT(s.retries, 0u) << "chaos config too weak to exercise retry paths";
  expect_same_stats(s, p);
  expect_same_completions(cs, cp);

  // Breaker timelines must agree too, shard by shard.
  serve::Server ss(cfg, pool, kSerial);
  serve::Server sp(cfg, pool, kParallel);
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 80, 5000.0);
  ss.run(w);
  sp.run(w);
  ASSERT_EQ(ss.shards().size(), sp.shards().size());
  for (std::size_t i = 0; i < ss.shards().size(); ++i) {
    const auto& ta = ss.shards()[i].breaker().transitions();
    const auto& tb = sp.shards()[i].breaker().transitions();
    ASSERT_EQ(ta.size(), tb.size()) << "shard " << i;
    for (std::size_t j = 0; j < ta.size(); ++j) {
      EXPECT_EQ(ta[j].time_us, tb[j].time_us) << "shard " << i;
      EXPECT_EQ(ta[j].from, tb[j].from) << "shard " << i;
      EXPECT_EQ(ta[j].to, tb[j].to) << "shard " << i;
    }
  }
}

TEST(ServeServer, IsOneShot) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  const serve::ServeConfig cfg = tiny_config();
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 8, 4000.0);
  serve::Server server(cfg, pool, kSerial);
  server.run(w);
  EXPECT_THROW(server.run(w), std::logic_error);
}

TEST(ServeConfigValidation, RejectsNonsense) {
  serve::ServeConfig cfg = tiny_config();
  cfg.num_shards = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = tiny_config();
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = tiny_config();
  cfg.max_attempts = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = tiny_config();
  cfg.deadline_us = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(tiny_config().validate());
}

}  // namespace
