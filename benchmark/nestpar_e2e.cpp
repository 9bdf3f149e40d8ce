// End-to-end host-cost benchmark: what the simulator and the serving layer
// cost to run on the host, per named workload, measured from outside by
// timing calls into the library's public functions.
//
//   nestpar_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--json FILE]
//   nestpar_e2e --check
//
// One run = one workload in one process:
//   1. set-up: the inputs (graphs, trees, serving pool, request stream) and
//      their serial reference answers are built kSetupRounds times; setup_s
//      is the median, and the last build is kept;
//   2. one untimed warm-up pass;
//   3. timed passes until --seconds have elapsed (at least kMinPasses);
//      pass_s is the fastest of them: load from other processes only ever
//      slows a pass down, so the fastest pass is the steadiest estimate of
//      its cost (README.md gives the measured spreads);
//   4. with --trace 1, one extra traced pass in which every layer call is
//      timed on its own. Only this pass yields the per-layer metrics; the
//      end-to-end metrics never come from it.
// Every output is checked against a serial reference and every modeled
// count must repeat exactly from pass to pass. The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
// --json FILE also writes every metric of the run to FILE.
//
// --check runs all five workloads at tiny sizes, then checks that the
// verifier rejects a corrupted SSSP distance and BFS level. See README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/apps/bfs.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/nested/templates.h"
#include "src/rec/tree_traversal.h"
#include "src/serve/pool.h"
#include "src/serve/server.h"
#include "src/simt/critpath.h"
#include "src/simt/device.h"
#include "src/simt/fault.h"
#include "src/simt/scheduler.h"
#include "src/tree/tree.h"

using namespace nestpar;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRounds = 21;
constexpr int kMinPasses = 3;
/// Virtual-time latency limit of the serving SLO metric.
constexpr double kSloUs = 2000.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this program image (VmHWM), in MiB; 0 if unknown.
/// getrusage's ru_maxrss would also count the parent's pages when the
/// launcher forked a large process, which VmHWM, reset by exec, does not.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Every generator seed of a run derives from --seed and a per-input salt.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return simt::fault_mix(seed + 0x9e3779b97f4a7c15ull * salt);
}

// ---------------------------------------------------------------------------
// Metric names. BENCHMARK.json lists the same names; every run prints all of
// one list. serve.* metrics read 0 on the sim workloads, which have no
// serving layer. Host time is in s/us/ns; serve latencies are modeled time
// on the virtual clock (model_us) and, like the modeled counts, repeat
// exactly for a given seed.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"pass_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"simt.functional_s", "s"},
    {"simt.ns_per_warp_step", "ns"},
    {"simt.us_per_grid", "us"},
    {"simt.mcycles_per_s", "Mcycles/s"},
    {"simt.report_s", "s"},
    {"simt.schedule_s", "s"},
    {"simt.critpath_s", "s"},
    {"simt.attribute_s", "s"},
    {"simt.schedule_ns_per_grid", "ns"},
    {"simt.modeled_cycles", "cycles"},
    {"simt.grids", "count"},
    {"simt.device_grids", "count"},
    {"simt.blocks", "count"},
    {"simt.warp_steps", "count"},
    {"simt.active_lane_ops", "count"},
    {"simt.atomic_ops", "count"},
    {"simt.warp_efficiency", "ratio"},
    {"graph.generate_s", "s"},
    {"apps.reference_s", "s"},
    {"serve.mean_batch_size", "count"},
    {"serve.launches_per_ok", "count"},
    {"serve.attempts", "count"},
    {"serve.retries", "count"},
    {"serve.hedges", "count"},
    {"serve.useful_attempt_ratio", "ratio"},
    {"serve.expired", "count"},
    {"serve.shed", "count"},
    {"serve.breaker_trips", "count"},
    {"serve.faults_injected", "count"},
    {"serve.p50_us", "model_us"},
    {"serve.p99_us", "model_us"},
    {"serve.slo_ratio", "ratio"},
    {"serve.device_cycles_per_ok", "cycles"},
    {"serve.p99_queue_us", "model_us"},
    {"serve.p99_batch_us", "model_us"},
    {"serve.p99_exec_us", "model_us"},
    {"serve.p99_retry_us", "model_us"},
    {"trace.overhead_ratio", "ratio"},
};

using Values = std::map<std::string, double>;

/// What a run attempted and what went wrong. `problems` are failed checks
/// (wrong output, a count that did not repeat, broken accounting); they make
/// the run incorrect. `failed` counts operations that did not succeed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void problem(std::string what) {
    std::fprintf(stderr, "nestpar_e2e: check failed: %s\n", what.c_str());
    problems.push_back(std::move(what));
  }
  bool correct() const { return problems.empty(); }
};

// ---------------------------------------------------------------------------
// Output checks.

/// Matches the serving layer's verification rule: finite values within a
/// relative tolerance, infinities (unreachable nodes) exactly.
template <typename T>
std::size_t count_mismatches(const std::vector<T>& got,
                             const std::vector<T>& want, double tol) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto a = static_cast<double>(got[i]);
    const auto b = static_cast<double>(want[i]);
    if (std::isinf(a) || std::isinf(b)) {
      bad += a != b ? 1 : 0;
      continue;
    }
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    bad += std::abs(a - b) > tol * scale ? 1 : 0;
  }
  return bad;
}

/// Modeled counts of one report. Deterministic: a pass that reproduces the
/// same recording yields the same values bit for bit.
struct Counts {
  double cycles = 0.0;
  std::uint64_t grids = 0;
  std::uint64_t device_grids = 0;
  std::uint64_t blocks = 0;
  std::uint64_t warp_steps = 0;
  std::uint64_t active_lane_ops = 0;
  std::uint64_t atomic_ops = 0;

  bool operator==(const Counts&) const = default;
  Counts& operator+=(const Counts& o) {
    cycles += o.cycles;
    grids += o.grids;
    device_grids += o.device_grids;
    blocks += o.blocks;
    warp_steps += o.warp_steps;
    active_lane_ops += o.active_lane_ops;
    atomic_ops += o.atomic_ops;
    return *this;
  }
};

Counts counts_of(const simt::RunReport& r) {
  return Counts{r.total_cycles,        r.grids,
                r.device_grids,        r.aggregate.blocks,
                r.aggregate.warp_steps, r.aggregate.active_lane_ops,
                r.aggregate.atomic_ops};
}

// ---------------------------------------------------------------------------
// Timing one recorded session: the functional pass (the app call: template
// body, op recording, combine_warp, merge_grid) and the timing pass
// (Session::report). When `split` is set, the timing pass is also broken
// into schedule / critical path / attribution, each run on a copy of the
// launch graph because schedule() writes occupancy into the graph it times.

struct LayerTimes {
  double wall_s = 0.0;  ///< Whole session, split work included.
  double functional_s = 0.0;
  double report_s = 0.0;
  double schedule_s = 0.0;
  double critpath_s = 0.0;
  double attribute_s = 0.0;
};

template <typename Functional>
std::invoke_result_t<Functional> time_session(simt::Session& session,
                                              bool split, LayerTimes& lt,
                                              Counts& counts,
                                              Functional&& functional) {
  const auto t0 = Clock::now();
  auto out = functional();
  lt.functional_s += since(t0);
  if (split) {
    simt::LaunchGraph copy = session.graph();
    auto t = Clock::now();
    const simt::ScheduleResult sched =
        simt::schedule(session.device().spec(), copy);
    lt.schedule_s += since(t);
    t = Clock::now();
    (void)simt::analyze_critical_path(copy, sched);
    lt.critpath_s += since(t);
    t = Clock::now();
    (void)simt::attribute_cycles(copy, sched);
    lt.attribute_s += since(t);
  }
  const auto t1 = Clock::now();
  const simt::RunReport rep = session.report();
  lt.report_s += since(t1);
  lt.wall_s += since(t0);
  counts += counts_of(rep);
  return out;
}

/// Per-layer simt metrics from one traced pass.
void put_simt_layers(Values& v, const LayerTimes& lt, const Counts& c) {
  const auto grids = static_cast<double>(c.grids);
  v["simt.functional_s"] = lt.functional_s;
  v["simt.ns_per_warp_step"] =
      lt.functional_s * 1e9 / static_cast<double>(c.warp_steps);
  v["simt.us_per_grid"] = lt.functional_s * 1e6 / grids;
  v["simt.mcycles_per_s"] = c.cycles / (lt.functional_s + lt.report_s) / 1e6;
  v["simt.report_s"] = lt.report_s;
  v["simt.schedule_s"] = lt.schedule_s;
  v["simt.critpath_s"] = lt.critpath_s;
  v["simt.attribute_s"] = lt.attribute_s;
  v["simt.schedule_ns_per_grid"] = lt.schedule_s * 1e9 / grids;
  v["simt.modeled_cycles"] = c.cycles;
  v["simt.grids"] = grids;
  v["simt.device_grids"] = static_cast<double>(c.device_grids);
  v["simt.blocks"] = static_cast<double>(c.blocks);
  v["simt.warp_steps"] = static_cast<double>(c.warp_steps);
  v["simt.active_lane_ops"] = static_cast<double>(c.active_lane_ops);
  v["simt.atomic_ops"] = static_cast<double>(c.atomic_ops);
  v["simt.warp_efficiency"] = static_cast<double>(c.active_lane_ops) /
                              (32.0 * static_cast<double>(c.warp_steps));
}

// ---------------------------------------------------------------------------
// Simulator workloads: a fixed list of app runs ("points"), closed loop, one
// pass after another.
//
// Input shapes (degree sequences, tree branching) come from a fixed seed;
// the run's seed renumbers the graph nodes. Renumbering changes which nodes
// share a warp and where their data lies, so modeled counts move with the
// seed, while the amount of work, and with it the host time, stays
// comparable from seed to seed. A freshly drawn graph would not: its SSSP
// sweep count, and with it the warp steps of a pass, varies by +-15%
// between draws.

constexpr std::uint64_t kShapeSeed = 2026;

enum class App { kSssp, kBfs, kTree };

struct SimPoint {
  App app = App::kSssp;
  std::size_t input = 0;  ///< Index into graphs (kSssp, kBfs) or trees.
  std::size_t ref = 0;    ///< Index into dist_refs (kSssp) or value_refs.
  nested::LoopTemplate loop = nested::LoopTemplate::kBaseline;
  rec::RecTemplate rec = rec::RecTemplate::kRecNaive;
  rec::TreeAlgo algo = rec::TreeAlgo::kDescendants;
};

struct SimInputs {
  std::vector<graph::Csr> graphs;
  std::vector<std::uint32_t> sources;  ///< SSSP / BFS source per graph.
  std::vector<tree::Tree> trees;
  std::vector<std::vector<float>> dist_refs;
  std::vector<std::vector<std::uint32_t>> value_refs;
  std::vector<SimPoint> points;
  double generate_s = 0.0;
  double reference_s = 0.0;
};

/// Adds `shape` with its nodes renumbered by a seeded random permutation
/// (each node's edges keep their order); its source is the renumbered
/// node 0.
void add_graph(SimInputs& in, const graph::Csr& shape, std::uint64_t seed) {
  const std::uint32_t n = shape.num_nodes();
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {  // Fisher-Yates.
    std::swap(perm[i - 1], perm[simt::fault_mix(seed + i) % i]);
  }
  std::vector<graph::Edge> edges;
  edges.reserve(shape.num_edges());
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t e = shape.row_offsets[u]; e < shape.row_offsets[u + 1];
         ++e) {
      edges.push_back(graph::Edge{perm[u], perm[shape.col_indices[e]],
                                  shape.weighted() ? shape.weights[e] : 1.0f});
    }
  }
  in.graphs.push_back(graph::build_csr(n, edges, shape.weighted()));
  in.sources.push_back(perm[0]);
}

/// Output of one point: `dist` for SSSP, `values` for BFS and the trees.
struct PointOutput {
  std::vector<float> dist;
  std::vector<std::uint32_t> values;
};

PointOutput run_point(simt::Device& dev, const SimInputs& in,
                      const SimPoint& p) {
  PointOutput out;
  switch (p.app) {
    case App::kSssp:
      out.dist = apps::run_sssp(dev, in.graphs[p.input], in.sources[p.input],
                                p.loop)
                     .dist;
      break;
    case App::kBfs:
      out.values = apps::bfs_recursive_gpu(dev, in.graphs[p.input],
                                           in.sources[p.input], p.rec);
      break;
    case App::kTree:
      out.values = rec::run_tree_traversal(
                       dev, in.trees[p.input],
                       rec::TreeRun{p.algo, p.rec, {}, std::nullopt})
                       .values;
      break;
  }
  return out;
}

/// Elements of `out` that differ from the point's serial reference: SSSP to
/// 1e-4 relative (summation order differs between templates), BFS levels
/// and tree values exactly.
std::size_t point_mismatches(const SimInputs& in, const SimPoint& p,
                             const PointOutput& out) {
  if (p.app == App::kSssp) {
    return count_mismatches(out.dist, in.dist_refs[p.ref], 1e-4);
  }
  return count_mismatches(out.values, in.value_refs[p.ref], 0.0);
}

/// sim-skewed: SSSP on one skewed power-law graph, with the thread-mapped
/// baseline, the shared-memory delayed buffer and block-scope
/// consolidation. The per-op path (recording, combine_warp) dominates.
SimInputs build_skewed(std::uint64_t seed, bool tiny) {
  SimInputs in;
  const auto t0 = Clock::now();
  add_graph(in,
            graph::generate_power_law(tiny ? 2000 : 20000, 1, 512, 16.0,
                                      kShapeSeed, /*weighted=*/true),
            derive_seed(seed, 1));
  in.generate_s = since(t0);
  const auto t1 = Clock::now();
  in.dist_refs.push_back(apps::sssp_serial(in.graphs[0], in.sources[0]));
  in.reference_s = since(t1);
  for (const nested::LoopTemplate t :
       {nested::LoopTemplate::kBaseline, nested::LoopTemplate::kDbufShared,
        nested::LoopTemplate::kConsBlock}) {
    in.points.push_back({.loop = t});
  }
  return in;
}

/// sim-launch: the launch-dense templates. Nearly every grid is launched
/// from the device, so the per-grid path (child-launch records, merge_grid,
/// launch-graph growth) and the scheduler dominate. The trees have fixed
/// shapes: tree traversals take no seeded input.
SimInputs build_launch(std::uint64_t seed, bool tiny) {
  SimInputs in;
  const auto t0 = Clock::now();
  add_graph(in,
            graph::generate_power_law(tiny ? 400 : 4000, 1, 512, 16.0,
                                      kShapeSeed, /*weighted=*/true),
            derive_seed(seed, 1));
  add_graph(in,
            graph::generate_uniform_random(tiny ? 300 : 3000, 0, 64,
                                           kShapeSeed),
            derive_seed(seed, 2));
  in.trees.push_back(tree::generate_tree(
      tree::TreeParams{tiny ? 2 : 3, tiny ? 32 : 128, 0}, kShapeSeed));
  in.trees.push_back(tree::generate_tree(
      tree::TreeParams{tiny ? 3 : 4, tiny ? 16 : 32, 1}, kShapeSeed));
  in.generate_s = since(t0);

  const auto t1 = Clock::now();
  in.dist_refs.push_back(apps::sssp_serial(in.graphs[0], in.sources[0]));
  in.value_refs.push_back(
      apps::bfs_serial_iterative(in.graphs[1], in.sources[1]));
  in.value_refs.push_back(rec::tree_traversal_serial_iterative(
      in.trees[0], rec::TreeAlgo::kDescendants));
  in.value_refs.push_back(rec::tree_traversal_serial_iterative(
      in.trees[1], rec::TreeAlgo::kHeights));
  in.reference_s = since(t1);

  in.points = {
      {.loop = nested::LoopTemplate::kDparNaive},
      {.app = App::kBfs, .input = 1, .ref = 0,
       .rec = rec::RecTemplate::kRecNaive},
      {.app = App::kBfs, .input = 1, .ref = 0,
       .rec = rec::RecTemplate::kRecHier},
      {.app = App::kTree, .input = 0, .ref = 1,
       .rec = rec::RecTemplate::kRecNaive,
       .algo = rec::TreeAlgo::kDescendants},
      {.app = App::kTree, .input = 1, .ref = 2,
       .rec = rec::RecTemplate::kRecHier, .algo = rec::TreeAlgo::kHeights},
  };
  return in;
}

struct SimPass {
  LayerTimes times;
  std::vector<Counts> counts;   ///< Per point.
  std::uint64_t mismatched = 0; ///< Points whose output was wrong.
};

SimPass run_sim_pass(simt::Device& dev, const simt::ExecPolicy& policy,
                     const SimInputs& in, bool traced) {
  SimPass pass;
  for (const SimPoint& p : in.points) {
    Counts c;
    PointOutput out;
    {
      simt::Session session = dev.session(policy);
      out = time_session(session, traced, pass.times, c,
                         [&] { return run_point(dev, in, p); });
    }
    pass.counts.push_back(c);
    if (point_mismatches(in, p, out) != 0) ++pass.mismatched;
  }
  return pass;
}

Counts total(const std::vector<Counts>& per_point) {
  Counts sum;
  for (const Counts& c : per_point) sum += c;
  return sum;
}

// ---------------------------------------------------------------------------
// Serving workloads: an open-loop request stream in virtual time over a
// sharded pool of simulated devices. Latency is measured from each
// request's scheduled arrival; arrivals are events on the virtual clock, so
// the generator cannot run late.

constexpr int kServeRequests = 2000;

struct ServeShape {
  double qps = 0.0;
  double fault_rate = 0.0;  ///< Failure probability of every kernel launch.
  int max_attempts = 3;
};

struct ServeInputs {
  std::unique_ptr<serve::SubgraphPool> pool;
  serve::ServeConfig cfg;
  std::vector<serve::Request> requests;
  double generate_s = 0.0;
  double reference_s = 0.0;
};

apps::PageRankOptions pagerank_options(const serve::ServeConfig& cfg) {
  apps::PageRankOptions opt;
  opt.iterations = cfg.pagerank_iterations;
  return opt;
}

ServeInputs build_serve(std::uint64_t seed, const ServeShape& shape,
                        bool tiny) {
  ServeInputs in;
  in.cfg.num_shards = 4;
  in.cfg.queue_capacity = 24;
  in.cfg.batch_max = 8;
  in.cfg.batch_linger_us = 200.0;
  in.cfg.max_attempts = shape.max_attempts;
  in.cfg.tmpl = nested::LoopTemplate::kConsGrid;
  in.cfg.num_tenants = 4;
  in.cfg.seed = derive_seed(seed, 11);
  in.cfg.faults.device_launch_rate = shape.fault_rate;
  in.cfg.faults.host_launch_rate = shape.fault_rate;
  in.cfg.faults.seed = derive_seed(seed, 12);

  // The tenants' graphs are fixed (see kShapeSeed); the seed drives the
  // traffic and the faults.
  serve::PoolSpec spec;
  spec.num_graphs = 4;
  spec.scale = tiny ? 0.25 : 1.0;
  spec.seed = kShapeSeed;

  const auto t0 = Clock::now();
  in.pool = std::make_unique<serve::SubgraphPool>(spec);
  in.requests = serve::make_open_loop_workload(
      *in.pool, in.cfg, tiny ? 100 : kServeRequests, shape.qps);
  in.generate_s = since(t0);

  // Fill the pool's reference cache up front, so the timed passes verify
  // against cached answers instead of computing them on first use.
  const auto t1 = Clock::now();
  for (const serve::Request& q : in.requests) {
    if (q.kind == serve::QueryKind::kSssp) {
      (void)in.pool->sssp_ref(q.graph_id, q.source);
    } else if (q.kind == serve::QueryKind::kPageRank) {
      (void)in.pool->pagerank_ref(q.graph_id, pagerank_options(in.cfg));
    }
  }
  in.reference_s = since(t1);
  return in;
}

struct ServeRep {
  double wall_s = 0.0;  ///< Server construction + Server::run.
  serve::ServeStats stats;
  std::uint64_t within_slo = 0;  ///< Ok requests with latency <= kSloUs.
};

ServeRep run_serve_rep(const ServeInputs& in) {
  ServeRep rep;
  const auto t0 = Clock::now();
  serve::Server server(in.cfg, *in.pool, simt::ExecPolicy::serial());
  rep.stats = server.run(in.requests);
  rep.wall_s = since(t0);
  for (const serve::Completion& c : server.completions()) {
    if (c.status == serve::RequestStatus::kOk && c.latency_us <= kSloUs) {
      ++rep.within_slo;
    }
  }
  return rep;
}

/// Every ServeStats field, for the exact-repeat check across reps.
std::vector<double> fingerprint(const serve::ServeStats& s) {
  return {static_cast<double>(s.submitted),
          static_cast<double>(s.ok),
          static_cast<double>(s.expired),
          static_cast<double>(s.shed),
          static_cast<double>(s.wrong),
          static_cast<double>(s.attempts),
          static_cast<double>(s.retries),
          static_cast<double>(s.hedges),
          static_cast<double>(s.batches),
          static_cast<double>(s.probes),
          static_cast<double>(s.breaker_trips),
          static_cast<double>(s.faults_injected),
          static_cast<double>(s.degraded),
          s.makespan_us,
          s.qps_ok,
          s.p50_us,
          s.p95_us,
          s.p99_us,
          s.mean_us,
          s.max_us,
          s.p99_queue_us,
          s.p99_batch_us,
          s.p99_exec_us,
          s.p99_retry_us,
          s.device_cycles_total,
          s.fault_device_cycles_total,
          static_cast<double>(s.launches_total)};
}

/// Re-runs every request once, fault-free, through the same app and
/// template the shards use, one session each (as a shard does), so the
/// simulation cost separates from the event loop, batching, retries and
/// verification. Returns the number of wrong outputs.
std::uint64_t replay_requests(const ServeInputs& in, LayerTimes& lt,
                              Counts& counts) {
  simt::Device dev(simt::DeviceSpec::k20(), 24, simt::ExecPolicy::serial());
  dev.set_fault_config(simt::FaultConfig{});
  const serve::SubgraphPool& pool = *in.pool;
  const serve::ServeConfig& cfg = in.cfg;
  std::uint64_t wrong = 0;
  for (const serve::Request& q : in.requests) {
    simt::Session session = dev.session(simt::ExecPolicy::serial());
    simt::TraceContext ctx;
    ctx.batch_id = q.id;
    ctx.members.push_back(simt::TraceMember{q.id, q.tenant, 1.0});
    session.set_trace_context(ctx);
    std::size_t bad = 0;
    switch (q.kind) {
      case serve::QueryKind::kSssp: {
        const auto dist = time_session(session, true, lt, counts, [&] {
          return apps::run_sssp(dev, pool.graph(q.graph_id), q.source,
                                cfg.tmpl, cfg.loop_params)
              .dist;
        });
        bad = count_mismatches(dist, pool.sssp_ref(q.graph_id, q.source),
                               1e-4);
        break;
      }
      case serve::QueryKind::kPageRank: {
        const auto rank = time_session(session, true, lt, counts, [&] {
          return apps::run_pagerank(dev, pool.graph(q.graph_id), cfg.tmpl,
                                    cfg.loop_params, pagerank_options(cfg));
        });
        bad = count_mismatches(
            rank, pool.pagerank_ref(q.graph_id, pagerank_options(cfg)), 1e-6);
        break;
      }
      case serve::QueryKind::kSpmv: {
        const auto y = time_session(session, true, lt, counts, [&] {
          return apps::run_spmv(dev, pool.matrix(q.graph_id),
                                pool.dense_x(q.graph_id), cfg.tmpl,
                                cfg.loop_params);
        });
        bad = count_mismatches(y, pool.spmv_ref(q.graph_id), 1e-3);
        break;
      }
    }
    if (bad != 0) ++wrong;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string_view name;
  bool serving = false;
  SimInputs (*build_sim)(std::uint64_t seed, bool tiny) = nullptr;
  int engine_threads = 1;  ///< Sim: host threads of the functional pass.
  ServeShape shape;        ///< Serve: traffic and faults.
};

const Workload kWorkloads[] = {
    {"sim-skewed", false, &build_skewed, 1, {}},
    {"sim-launch", false, &build_launch, 1, {}},
    {"sim-skewed-par2", false, &build_skewed, 2, {}},
    {"serve-busy", true, nullptr, 1, {20000.0, 0.0, 3}},
    // Eight attempts per request: at these fault rates a request that runs
    // out of attempts is rarer than one in a million, so no operation fails
    // while retries and hedges still carry ~15% of the attempts.
    {"serve-faults", true, nullptr, 1, {3000.0, 0.01, 8}},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct RunConfig {
  std::uint64_t seed = 2026;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

struct RunResult {
  Values values;
  Tally tally;
  int passes = 0;
};

/// Runs set-up kSetupRounds times, keeping the last build.
template <typename Inputs, typename Build>
Inputs timed_setup(Values& v, Build&& build) {
  std::vector<double> total, generate, reference;
  std::optional<Inputs> in;
  for (int round = 0; round < kSetupRounds; ++round) {
    in.reset();  // Hold one copy of the inputs at a time.
    const auto t0 = Clock::now();
    in.emplace(build());
    total.push_back(since(t0));
    generate.push_back(in->generate_s);
    reference.push_back(in->reference_s);
  }
  v["setup_s"] = median(total);
  v["graph.generate_s"] = median(generate);
  v["apps.reference_s"] = median(reference);
  return std::move(*in);
}

/// Runs `pass` until `seconds` have elapsed and at least kMinPasses ran;
/// returns the wall time of each.
template <typename Pass>
std::vector<double> timed_passes(double seconds, Pass&& pass) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (static_cast<int>(walls.size()) < kMinPasses || since(t0) < seconds) {
    walls.push_back(pass());
  }
  return walls;
}

RunResult run_sim(const Workload& w, const RunConfig& rc) {
  RunResult r;
  Values& v = r.values;
  Tally& tally = r.tally;
  const SimInputs in = timed_setup<SimInputs>(
      v, [&] { return w.build_sim(rc.seed, rc.tiny); });
  const simt::ExecPolicy policy = w.engine_threads > 1
                                      ? simt::ExecPolicy::parallel(
                                            w.engine_threads)
                                      : simt::ExecPolicy::serial();
  simt::Device dev(simt::DeviceSpec::k20(), 24, policy);
  dev.set_fault_config(simt::FaultConfig{});

  const SimPass warm = run_sim_pass(dev, policy, in, false);
  auto account = [&](const SimPass& p, const char* which) {
    tally.attempted += p.counts.size();
    tally.failed += p.mismatched;
    if (p.mismatched != 0) {
      tally.problem(std::string(w.name) + ": " + which + " pass: " +
                    std::to_string(p.mismatched) +
                    " output(s) differ from the serial reference");
    }
    if (p.counts != warm.counts) {
      tally.problem(std::string(w.name) + ": " + which +
                    " pass: modeled counts differ from the warm-up pass");
    }
  };
  account(warm, "warm-up");

  const std::vector<double> walls = timed_passes(rc.seconds, [&] {
    const SimPass p = run_sim_pass(dev, policy, in, false);
    account(p, "timed");
    return p.times.wall_s;
  });
  r.passes = static_cast<int>(walls.size());
  v["pass_s"] = *std::min_element(walls.begin(), walls.end());
  v["peak_rss_mb"] = peak_rss_mb();

  if (rc.trace) {
    const SimPass traced = run_sim_pass(dev, policy, in, true);
    account(traced, "traced");
    put_simt_layers(v, traced.times, total(traced.counts));
    v["trace.overhead_ratio"] = traced.times.wall_s / v["pass_s"];
  }
  return r;
}

RunResult run_serve(const Workload& w, const RunConfig& rc) {
  RunResult r;
  Values& v = r.values;
  Tally& tally = r.tally;
  const ServeInputs in = timed_setup<ServeInputs>(
      v, [&] { return build_serve(rc.seed, w.shape, rc.tiny); });

  const ServeRep warm = run_serve_rep(in);
  const std::vector<double> expect = fingerprint(warm.stats);
  auto account = [&](const ServeRep& rep, const char* which) {
    const serve::ServeStats& s = rep.stats;
    tally.attempted += s.submitted;
    tally.failed += s.submitted - s.ok;
    const std::string where = std::string(w.name) + ": " + which + " rep: ";
    if (s.wrong != 0) {
      tally.problem(where + std::to_string(s.wrong) +
                    " Ok result(s) failed verification");
    }
    if (s.ok + s.expired + s.shed != s.submitted) {
      tally.problem(where + "ok + expired + shed != submitted");
    }
    if (fingerprint(s) != expect || rep.within_slo != warm.within_slo) {
      tally.problem(where + "serve statistics differ from the warm-up rep");
    }
  };
  account(warm, "warm-up");

  const std::vector<double> walls = timed_passes(rc.seconds, [&] {
    const ServeRep rep = run_serve_rep(in);
    account(rep, "timed");
    return rep.wall_s;
  });
  r.passes = static_cast<int>(walls.size());
  const serve::ServeStats& s = warm.stats;
  v["pass_s"] = *std::min_element(walls.begin(), walls.end());
  v["peak_rss_mb"] = peak_rss_mb();

  if (rc.trace) {
    const ServeRep traced = run_serve_rep(in);
    account(traced, "traced");
    LayerTimes lt;
    Counts counts;
    const std::uint64_t wrong = replay_requests(in, lt, counts);
    tally.attempted += in.requests.size();
    tally.failed += wrong;
    if (wrong != 0) {
      tally.problem(std::string(w.name) + ": replay: " +
                    std::to_string(wrong) + " wrong output(s)");
    }
    put_simt_layers(v, lt, counts);
    const auto ok = static_cast<double>(s.ok);
    const auto attempts = static_cast<double>(s.attempts);
    v["serve.mean_batch_size"] = attempts / static_cast<double>(s.batches);
    v["serve.launches_per_ok"] = static_cast<double>(s.launches_total) / ok;
    v["serve.attempts"] = attempts;
    v["serve.retries"] = static_cast<double>(s.retries);
    v["serve.hedges"] = static_cast<double>(s.hedges);
    v["serve.useful_attempt_ratio"] = ok / attempts;
    v["serve.expired"] = static_cast<double>(s.expired);
    v["serve.shed"] = static_cast<double>(s.shed);
    v["serve.breaker_trips"] = static_cast<double>(s.breaker_trips);
    v["serve.faults_injected"] = static_cast<double>(s.faults_injected);
    v["serve.p50_us"] = s.p50_us;
    v["serve.p99_us"] = s.p99_us;
    v["serve.slo_ratio"] = static_cast<double>(warm.within_slo) /
                           static_cast<double>(s.submitted);
    v["serve.device_cycles_per_ok"] = s.device_cycles_total / ok;
    v["serve.p99_queue_us"] = s.p99_queue_us;
    v["serve.p99_batch_us"] = s.p99_batch_us;
    v["serve.p99_exec_us"] = s.p99_exec_us;
    v["serve.p99_retry_us"] = s.p99_retry_us;
    v["trace.overhead_ratio"] = traced.wall_s / v["pass_s"];
  }
  return r;
}

RunResult run_workload(const Workload& w, const RunConfig& rc) {
  RunResult r = w.serving ? run_serve(w, rc) : run_sim(w, rc);
  for (const auto& [name, value] : r.values) {
    if (!std::isfinite(value)) {
      r.tally.problem(std::string(w.name) + ": metric " + name +
                      " is not finite");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output.

double value_of(const Values& v, const char* name) {
  const auto it = v.find(name);
  return it == v.end() ? 0.0 : it->second;
}

template <std::size_t N>
void print_lines(std::string_view workload, const Values& v,
                 const MetricDef (&defs)[N]) {
  for (const MetricDef& d : defs) {
    std::printf("%.*s %s %.10g %s\n", static_cast<int>(workload.size()),
                workload.data(), d.name, value_of(v, d.name), d.unit);
  }
}

template <std::size_t N>
std::string metrics_json(const Values& v, const MetricDef (&defs)[N]) {
  std::string out;
  char buf[96];
  for (const MetricDef& d : defs) {
    if (!out.empty()) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", value_of(v, d.name));
    out += std::string("\"") + d.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  return out;
}

/// The result fields, without the enclosing braces.
std::string result_fields(const RunResult& r, const std::string& metrics) {
  return "\"correct\": " + std::string(r.tally.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.tally.attempted) +
         ", \"failed\": " + std::to_string(r.tally.failed) +
         ", \"metrics\": {" + metrics + "}";
}

/// The --json file: the run's identity and every metric it measured.
bool write_json_file(const std::string& path, const Workload& w,
                     const RunConfig& rc, const RunResult& r) {
  std::string metrics = metrics_json(r.values, kEndToEnd);
  if (rc.trace) metrics += ", " + metrics_json(r.values, kPerLayer);
  const double fail_ratio =
      r.tally.attempted == 0 ? 0.0
                             : static_cast<double>(r.tally.failed) /
                                   static_cast<double>(r.tally.attempted);
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"workload\": \"%.*s\", \"seed\": %llu, \"seconds\": %.17g, "
                "\"trace\": %d, \"passes\": %d, \"fail_ratio\": %.17g, ",
                static_cast<int>(w.name.size()), w.name.data(),
                static_cast<unsigned long long>(rc.seed), rc.seconds,
                rc.trace ? 1 : 0, r.passes, fail_ratio);
  const std::string body = head + result_fields(r, metrics) + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(body.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// --check: tiny sizes, every workload traced, then the verifier must reject
// corrupted outputs.

int run_check() {
  int failures = 0;
  RunConfig rc;
  rc.seconds = 0.0;
  rc.trace = true;
  rc.tiny = true;
  for (const Workload& w : kWorkloads) {
    const auto t0 = Clock::now();
    const RunResult r = run_workload(w, rc);
    const bool ok = r.tally.correct() && r.tally.failed == 0 &&
                    r.tally.attempted > 0;
    std::printf("check %.*s: %s (%d passes, %llu attempted, %.2f s)\n",
                static_cast<int>(w.name.size()), w.name.data(),
                ok ? "ok" : "FAILED", r.passes,
                static_cast<unsigned long long>(r.tally.attempted),
                since(t0));
    failures += ok ? 0 : 1;
  }

  // A wrong SSSP distance and a wrong BFS level must both be caught.
  const SimInputs in = build_launch(2026, true);
  simt::Device dev(simt::DeviceSpec::k20(), 24, simt::ExecPolicy::serial());
  dev.set_fault_config(simt::FaultConfig{});
  for (const SimPoint& p : {in.points[0], in.points[1]}) {
    PointOutput out;
    {
      simt::Session session = dev.session(simt::ExecPolicy::serial());
      out = run_point(dev, in, p);
    }
    const bool clean = point_mismatches(in, p, out) == 0;
    const std::uint32_t src = in.sources[p.input];
    if (p.app == App::kSssp) {
      out.dist[src] += 1.0f;  // The source's distance is 0.
    } else {
      out.values[src] += 1;  // The source's level is 0.
    }
    const bool caught = point_mismatches(in, p, out) == 1;
    std::printf("check corrupted %s output: %s\n",
                p.app == App::kSssp ? "SSSP" : "BFS",
                clean && caught ? "rejected" : "NOT REJECTED");
    failures += clean && caught ? 0 : 1;
  }
  std::printf("check: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line.

void print_usage(std::FILE* f) {
  std::fputs(
      "usage: nestpar_e2e --workload NAME [--seed N] [--seconds S] "
      "[--trace 0|1] [--json FILE]\n"
      "       nestpar_e2e --check\n"
      "workloads:",
      f);
  for (const Workload& w : kWorkloads) {
    std::fprintf(f, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fputs("\n", f);
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "nestpar_e2e: %s\n", msg.c_str());
  print_usage(stderr);
  std::exit(2);
}

bool parse_number(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size() && std::isfinite(out);
}

struct Options {
  const Workload* workload = nullptr;
  RunConfig run;
  std::string json_path;
  bool check = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      o.check = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    }
    // Both "--key value" and "--key=value".
    std::string key = arg;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("missing value for " + arg);
    }
    double num = 0.0;
    if (key == "--workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) usage_error("unknown workload '" + value + "'");
    } else if (key == "--seed") {
      if (!parse_number(value, num) || num < 0 || num > 9.0e15 ||
          num != std::floor(num)) {
        usage_error("--seed wants a non-negative integer");
      }
      o.run.seed = static_cast<std::uint64_t>(num);
    } else if (key == "--seconds") {
      if (!parse_number(value, num) || num < 0 || num > 600) {
        usage_error("--seconds wants a number in [0, 600]");
      }
      o.run.seconds = num;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace wants 0 or 1");
      o.run.trace = value == "1";
    } else if (key == "--json") {
      o.json_path = value;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (!o.check && o.workload == nullptr) usage_error("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark pins the engine, faults and profiling itself; an ambient
  // setting would silently change what is measured.
  for (const char* var :
       {"NESTPAR_FAULTS", "NESTPAR_THREADS", "NESTPAR_EXEC", "NESTPAR_PROFILE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "nestpar_e2e: unset %s before benchmarking\n", var);
      return 2;
    }
  }
  const Options o = parse_args(argc, argv);
  if (o.check) return run_check();

  const Workload& w = *o.workload;
  const RunResult r = run_workload(w, o.run);
  std::printf("%.*s seed %llu: %d timed %s, %llu attempted, %llu failed\n",
              static_cast<int>(w.name.size()), w.name.data(),
              static_cast<unsigned long long>(o.run.seed), r.passes,
              w.serving ? "reps" : "passes",
              static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.failed));
  print_lines(w.name, r.values, kEndToEnd);
  if (o.run.trace) print_lines(w.name, r.values, kPerLayer);
  if (!o.json_path.empty() && !write_json_file(o.json_path, w, o.run, r)) {
    std::fprintf(stderr, "nestpar_e2e: cannot write %s\n",
                 o.json_path.c_str());
    return 1;
  }
  const std::string metrics = o.run.trace ? metrics_json(r.values, kPerLayer)
                                          : metrics_json(r.values, kEndToEnd);
  std::printf("{%s}\n", result_fields(r, metrics).c_str());
  return r.tally.correct() ? 0 : 1;
}
