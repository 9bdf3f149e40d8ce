#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "src/serve/pool.h"
#include "src/serve/request.h"
#include "src/serve/shard.h"
#include "src/serve/telemetry.h"
#include "src/serve/trace.h"
#include "src/simt/exec_policy.h"
#include "src/simt/virtual_clock.h"

namespace nestpar::serve {

/// Aggregate outcome of one serving run. Every field is a pure function of
/// (config, workload, pool): counters are exact, latency percentiles are
/// nearest-rank over Ok completions — bit-stable across host engines, which
/// is what makes SERVE_* files baseline-pinnable.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t expired = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;  ///< Ok results failing verification (must be 0).
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t batches = 0;
  std::uint64_t probes = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t degraded = 0;  ///< Template-level inline degradations.
  double makespan_us = 0.0;
  double qps_ok = 0.0;  ///< Ok completions per second of makespan.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;

  /// Tail-latency attribution: the four phase shares of the Ok completion
  /// sitting at the p99 nearest-rank position (first completion in
  /// processing order with that latency — deterministic tie-break). They sum
  /// to p99_us up to floating-point rounding, so a scheduling regression
  /// shows *where* the tail moved (queue vs batch vs exec vs retry), not
  /// just that it moved.
  double p99_queue_us = 0.0;
  double p99_batch_us = 0.0;
  double p99_exec_us = 0.0;
  double p99_retry_us = 0.0;

  /// Total modeled device cycles attributed to requests: the fold, in
  /// completion-processing order, of every completion's device_cycles.
  /// Bit-exact conservation by construction — re-folding the completions
  /// list reproduces this value to the last bit (tested, and re-verified by
  /// tools/check_trace.py against the exported artifacts).
  double device_cycles_total = 0.0;
  double fault_device_cycles_total = 0.0;  ///< Same fold, fault-path share.
  std::uint64_t launches_total = 0;  ///< Grids run across all attempts.
};

/// Per-tenant device-cost rollup ("who is burning the device?"). Folded in
/// completion-processing order; rows sorted by tenant id.
struct TenantUsage {
  std::uint32_t tenant = 0;
  std::uint64_t requests = 0;  ///< Completions (any terminal status).
  std::uint64_t ok = 0;
  std::uint64_t launches = 0;  ///< Grids its requests ran.
  std::uint64_t retries = 0;   ///< Attempts beyond the first, per request.
  double device_cycles = 0.0;
  double fault_device_cycles = 0.0;  ///< Cycles burned on the fault path.
};

/// Nearest-rank percentile over an ascending-sorted sample (q in (0, 1]).
/// Returns 0 for an empty sample.
double percentile_nearest_rank(const std::vector<double>& sorted, double q);

/// Synthesize a deterministic open-loop workload: `num_requests` queries
/// with hash-jittered inter-arrival gaps averaging ~1/arrival_qps, a fixed
/// kind mix (50% SSSP, 30% SpMV, 20% PageRank), hash-picked pool graphs and
/// sources, and `cfg.deadline_us` budgets. Same (cfg.seed, pool) -> same
/// workload, byte for byte.
std::vector<Request> make_open_loop_workload(const SubgraphPool& pool,
                                             const ServeConfig& cfg,
                                             int num_requests,
                                             double arrival_qps);

/// The serving runtime: a deterministic discrete-event loop over virtual
/// time. Requests arrive open-loop, are admitted to the least-loaded healthy
/// shard (bounded queue, oldest-first shed), consolidated into batches, and
/// executed; transient launch faults retry with exponential backoff —
/// re-dispatched to a sibling shard when hedging is on or the breaker
/// tripped — and every request terminates as exactly one of Ok / Expired /
/// Shed. Single-threaded by construction; the only nondeterminism the
/// underlying simulator could exhibit (host engine choice) is erased by the
/// device model's bit-identical reports.
class Server {
 public:
  Server(const ServeConfig& cfg, const SubgraphPool& pool,
         const simt::ExecPolicy& policy);

  /// Run the request schedule to completion and return the stats. One-shot:
  /// a Server instance serves exactly one run (throws std::logic_error on
  /// reuse) so breaker and queue state can never leak between experiments.
  ServeStats run(std::span<const Request> requests);

  /// Terminal records, one per request, in completion-processing order.
  const std::vector<Completion>& completions() const { return completions_; }
  /// Per-tenant cost rollup, sorted by tenant id (valid after run()).
  const std::vector<TenantUsage>& tenant_usage() const { return tenants_; }
  const std::vector<Shard>& shards() const { return shards_; }
  /// Span recorder (populated when cfg.trace; see write_serve_trace).
  const ServeTracer& tracer() const { return tracer_; }
  /// Metrics registry (populated when cfg.metrics_interval_us > 0).
  const Telemetry& telemetry() const { return telemetry_; }

 private:
  enum class EvKind : std::uint8_t {
    kArrival,    ///< arg = query index.
    kBatchDone,  ///< shard finished its batch; try to dispatch again.
    kLinger,     ///< a partial batch's linger window closed.
    kRetry,      ///< arg = query index; re-admit for its next attempt.
    kProbe,      ///< a breaker cooldown expired; begin the probe.
  };
  struct Event {
    double t = 0.0;
    std::uint64_t seq = 0;  ///< Tie-break: schedule order.
    EvKind kind = EvKind::kArrival;
    std::uint64_t arg = 0;
    int shard = -1;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  struct QueryState {
    Request req;
    int attempts = 0;
    bool hedged = false;
    bool done = false;
    std::uint64_t faults_seen = 0;
    double enqueue_us = 0.0;  ///< Last time it entered a shard queue.
    int avoid_shard = -1;     ///< Hedged retries prefer a different shard.
    // Latency-attribution accumulators (see Completion): together they tile
    // [arrival, finish], each segment accounted exactly once.
    double queue_us = 0.0;
    double batch_us = 0.0;
    double exec_us = 0.0;
    double retry_us = 0.0;
    // Device-cost accumulators, folded in attempt order.
    double device_cycles = 0.0;
    double fault_device_cycles = 0.0;
    std::uint64_t launches = 0;
    std::string verdict;  ///< Critical-path verdict of the last attempt.
  };

  void push_event(double t, EvKind kind, std::uint64_t arg, int shard);
  /// Queue `idx` on the best healthy shard (skipping `avoid` when another
  /// choice exists); shed when no shard admits. Full queues shed their
  /// oldest entry to make room.
  void admit(std::uint64_t idx, double now, int avoid);
  void maybe_dispatch(Shard& s, double now);
  void dispatch_batch(Shard& s, double now, bool probe);
  void complete(std::uint64_t idx, RequestStatus status, double t, int shard,
                bool correct);
  void finalize_stats();
  /// Close one queue stay ending at `now`: fold it into the attribution
  /// accumulator and record the span. Call *before* anything resets
  /// enqueue_us (i.e. before a re-admission).
  void leave_queue(std::uint64_t idx, double now, int shard);
  /// Drain every telemetry sampling boundary at or before `upto_us`.
  void sample_telemetry(double upto_us);
  void sample_telemetry_at(double tick_us);

  ServeConfig cfg_;
  const SubgraphPool* pool_;
  std::vector<Shard> shards_;
  simt::VirtualClock clock_;
  ServeTracer tracer_;
  Telemetry telemetry_;
  simt::TickSampler sampler_;
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  std::vector<QueryState> states_;
  std::vector<Completion> completions_;
  std::vector<TenantUsage> tenants_;
  ServeStats stats_;
  std::uint64_t event_seq_ = 0;
  std::uint64_t attempt_seq_ = 0;
  std::uint64_t done_count_ = 0;
  bool ran_ = false;
};

}  // namespace nestpar::serve
