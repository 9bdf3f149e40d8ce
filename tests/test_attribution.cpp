// Cross-layer device-cost attribution: the trace-context plumbing from the
// serving layer down through the recorder into the launch graph, the
// conservation-exact cycle tiling (simt::split_cycles / attribute_cycles),
// the per-tenant rollups, and the unified serve trace export. The load-
// bearing invariant everywhere: attributed cycles sum *bit-exactly* to the
// scheduled total — no tolerance — because every consumer (SERVE baselines,
// tools/check_trace.py) re-verifies the same fold in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/pool.h"
#include "src/serve/server.h"
#include "src/serve/trace.h"
#include "src/simt/device.h"
#include "src/simt/fault.h"
#include "src/simt/scheduler.h"
#include "src/simt/trace_export.h"

namespace simt = nestpar::simt;
namespace serve = nestpar::serve;

namespace {

constexpr simt::ExecPolicy kSerial{simt::ExecMode::kSerial, 0};
constexpr simt::ExecPolicy kParallel{simt::ExecMode::kParallel, 4};

simt::LaunchConfig cfg(int blocks, int threads, const char* name) {
  simt::LaunchConfig c;
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.name = name;
  return c;
}

// ---------------------------------------------------------------------------
// split_cycles: the per-grid tiling primitive.

TEST(SplitCycles, SingleMemberGetsTotalExactly) {
  const std::vector<simt::TraceMember> one{{7, 0, 1.0}};
  const std::vector<double> s = simt::split_cycles(1234.567, one);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], 1234.567);  // bitwise, not approximately
}

TEST(SplitCycles, MultiMemberFoldsBackToTotalBitExactly) {
  // Awkward weights and an awkward total: the last share is nudged so the
  // left-to-right fold reproduces the total with zero error.
  const std::vector<simt::TraceMember> members{
      {1, 0, 3.0}, {2, 1, 1.0}, {3, 0, 7.0}, {4, 2, 0.25}, {5, 1, 11.0}};
  const double total = 98765.4321;
  const std::vector<double> s = simt::split_cycles(total, members);
  ASSERT_EQ(s.size(), members.size());
  double acc = 0.0;
  for (const double v : s) acc += v;
  EXPECT_EQ(acc, total);
}

TEST(SplitCycles, SharesFollowWeights) {
  const std::vector<simt::TraceMember> members{{1, 0, 1.0}, {2, 0, 3.0}};
  const std::vector<double> s = simt::split_cycles(1000.0, members);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NEAR(s[0], 250.0, 1e-9);
  EXPECT_NEAR(s[1], 750.0, 1e-9);
}

TEST(SplitCycles, ZeroWeightsFallBackToUniform) {
  const std::vector<simt::TraceMember> members{
      {1, 0, 0.0}, {2, 0, 0.0}, {3, 0, 0.0}, {4, 0, 0.0}};
  const std::vector<double> s = simt::split_cycles(100.0, members);
  double acc = 0.0;
  for (const double v : s) {
    EXPECT_NEAR(v, 25.0, 1e-9);
    acc += v;
  }
  EXPECT_EQ(acc, 100.0);
}

// ---------------------------------------------------------------------------
// attribute_cycles: context stamping through the recorder.

TEST(AttributeCycles, ContextFreeSessionAttributesNothing) {
  simt::Device dev;
  dev.launch_threads(cfg(2, 64, "plain"),
                     [](simt::LaneCtx& t) { t.compute(1000); });
  simt::LaunchGraph graph = dev.graph();
  const simt::ScheduleResult sched = simt::schedule(dev.spec(), graph);
  const simt::CycleAttribution attr = simt::attribute_cycles(graph, sched);
  EXPECT_EQ(attr.attributed_grids, 0u);
  EXPECT_EQ(attr.attributed_cycles, 0.0);
  EXPECT_TRUE(attr.per_request.empty());
}

TEST(AttributeCycles, AmbientContextStampsEveryGrid) {
  simt::Device dev;
  simt::TraceContext ctx;
  ctx.batch_id = 42;
  ctx.members.push_back(simt::TraceMember{11, 3, 1.0});
  dev.set_trace_context(ctx);
  dev.launch_threads(cfg(1, 64, "a"),
                     [](simt::LaneCtx& t) { t.compute(2000); });
  dev.launch_threads(cfg(1, 64, "b"),
                     [](simt::LaneCtx& t) { t.compute(3000); });
  simt::LaunchGraph graph = dev.graph();
  const simt::ScheduleResult sched = simt::schedule(dev.spec(), graph);
  const simt::CycleAttribution attr = simt::attribute_cycles(graph, sched);
  EXPECT_EQ(attr.attributed_grids, 2u);
  ASSERT_EQ(attr.per_request.size(), 1u);
  EXPECT_EQ(attr.per_request[0].request, 11u);
  EXPECT_EQ(attr.per_request[0].tenant, 3u);
  EXPECT_EQ(attr.per_request[0].grids, 2u);
  // One member: its total is the exact fold of grid busy cycles.
  double busy = 0.0;
  for (const simt::KernelNode& n : graph.nodes) {
    busy += sched.node_end[n.id] - sched.node_start[n.id];
  }
  EXPECT_EQ(attr.per_request[0].cycles, busy);
  EXPECT_EQ(attr.attributed_cycles, busy);
}

TEST(AttributeCycles, DeviceChildGridsInheritParentContext) {
  simt::Device dev;
  simt::TraceContext ctx;
  ctx.batch_id = 7;
  ctx.members.push_back(simt::TraceMember{21, 1, 1.0});
  dev.set_trace_context(ctx);
  dev.launch_threads(cfg(1, 1, "parent"), [](simt::LaneCtx& t) {
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "child"),
                                 [](simt::LaneCtx& c) { c.compute(4000); }));
  });
  simt::LaunchGraph graph = dev.graph();
  ASSERT_EQ(graph.nodes.size(), 2u);
  for (const simt::KernelNode& n : graph.nodes) {
    EXPECT_EQ(n.batch_id, 7u) << "node " << n.id;
    ASSERT_EQ(n.requesters.size(), 1u) << "node " << n.id;
    EXPECT_EQ(n.requesters[0].request, 21u);
  }
  const simt::ScheduleResult sched = simt::schedule(dev.spec(), graph);
  const simt::CycleAttribution attr = simt::attribute_cycles(graph, sched);
  EXPECT_EQ(attr.attributed_grids, 2u);
  ASSERT_EQ(attr.per_request.size(), 1u);
  EXPECT_EQ(attr.per_request[0].grids, 2u);
}

TEST(AttributeCycles, PerLaunchOverrideBeatsAmbientAndPropagates) {
  simt::Device dev;
  simt::TraceContext ambient;
  ambient.batch_id = 1;
  ambient.members.push_back(simt::TraceMember{100, 0, 1.0});
  dev.set_trace_context(ambient);

  // First grid rides the ambient context; second overrides per launch, and
  // its device children must inherit the *override*, not the ambient.
  dev.launch_threads(cfg(1, 64, "ambient"),
                     [](simt::LaneCtx& t) { t.compute(1000); });
  simt::LaunchConfig over = cfg(1, 1, "override");
  over.trace.batch_id = 2;
  over.trace.members.push_back(simt::TraceMember{200, 5, 1.0});
  dev.launch_threads(over, [](simt::LaneCtx& t) {
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "override-child"),
                                 [](simt::LaneCtx& c) { c.compute(500); }));
  });

  const simt::LaunchGraph graph = dev.graph();
  ASSERT_EQ(graph.nodes.size(), 3u);
  EXPECT_EQ(graph.nodes[0].batch_id, 1u);
  EXPECT_EQ(graph.nodes[0].requesters[0].request, 100u);
  for (std::size_t i = 1; i < graph.nodes.size(); ++i) {
    EXPECT_EQ(graph.nodes[i].batch_id, 2u) << "node " << i;
    EXPECT_EQ(graph.nodes[i].requesters[0].request, 200u) << "node " << i;
    EXPECT_EQ(graph.nodes[i].requesters[0].tenant, 5u) << "node " << i;
  }
}

TEST(AttributeCycles, MultiMemberGridConservesAcrossRequests) {
  // A consolidated grid serving three requests: shares tile the grid's busy
  // cycles, and the attempt total still folds back exactly.
  simt::Device dev;
  simt::LaunchConfig c = cfg(4, 64, "consolidated");
  c.trace.batch_id = 9;
  c.trace.members.push_back(simt::TraceMember{1, 0, 2.0});
  c.trace.members.push_back(simt::TraceMember{2, 1, 5.0});
  c.trace.members.push_back(simt::TraceMember{3, 0, 3.0});
  dev.launch_threads(c, [](simt::LaneCtx& t) { t.compute(12345); });
  simt::LaunchGraph graph = dev.graph();
  const simt::ScheduleResult sched = simt::schedule(dev.spec(), graph);
  const simt::CycleAttribution attr = simt::attribute_cycles(graph, sched);
  ASSERT_EQ(attr.per_request.size(), 3u);
  const double busy = sched.node_end[0] - sched.node_start[0];
  double acc = 0.0;
  for (const simt::RequestCycles& rc : attr.per_request) acc += rc.cycles;
  // Same doubles, same left-to-right order as the producer's fold.
  EXPECT_EQ(acc, busy);
  EXPECT_EQ(attr.attributed_cycles, busy);
  // Shares follow weights (request 2 carries half the work).
  EXPECT_NEAR(attr.per_request[1].cycles, busy * 0.5, busy * 1e-9);
}

TEST(AttributeCycles, ClearTraceContextStopsStamping) {
  simt::Device dev;
  simt::TraceContext ctx;
  ctx.batch_id = 3;
  ctx.members.push_back(simt::TraceMember{1, 0, 1.0});
  dev.set_trace_context(ctx);
  dev.launch_threads(cfg(1, 64, "stamped"),
                     [](simt::LaneCtx& t) { t.compute(100); });
  dev.clear_trace_context();
  dev.launch_threads(cfg(1, 64, "plain"),
                     [](simt::LaneCtx& t) { t.compute(100); });
  const simt::LaunchGraph graph = dev.graph();
  ASSERT_EQ(graph.nodes.size(), 2u);
  EXPECT_EQ(graph.nodes[0].batch_id, 3u);
  EXPECT_EQ(graph.nodes[1].batch_id, simt::kNoBatchId);
  EXPECT_TRUE(graph.nodes[1].requesters.empty());
}

TEST(TraceExport, StampedGridsCarryProvenanceArgs) {
  simt::Device dev;
  simt::TraceContext ctx;
  ctx.batch_id = 5;
  ctx.members.push_back(simt::TraceMember{77, 2, 1.0});
  dev.set_trace_context(ctx);
  dev.launch_threads(cfg(1, 64, "k"),
                     [](simt::LaneCtx& t) { t.compute(100); });
  std::ostringstream os;
  simt::write_chrome_trace(os, dev);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"batch\":5"), std::string::npos);
  EXPECT_NE(trace.find("\"requests\":[77]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serving-layer conservation and tenant rollups.

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
  cfg.faults = simt::FaultConfig{};
  return cfg;
}

TEST(ServeAttribution, CompletionCyclesFoldToStatsTotalBitExactly) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 40, 6000.0);
  serve::Server server(cfg, pool, kSerial);
  const serve::ServeStats s = server.run(w);
  ASSERT_GT(s.device_cycles_total, 0.0);
  // Same doubles in the same (completion) order: zero-tolerance equality.
  double total = 0.0;
  double fault_total = 0.0;
  std::uint64_t launches = 0;
  for (const serve::Completion& c : server.completions()) {
    total += c.device_cycles;
    fault_total += c.fault_device_cycles;
    launches += c.launches;
  }
  EXPECT_EQ(total, s.device_cycles_total);
  EXPECT_EQ(fault_total, s.fault_device_cycles_total);
  EXPECT_EQ(launches, s.launches_total);
}

TEST(ServeAttribution, TenantRollupsPartitionTheRun) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.num_tenants = 4;
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 60, 8000.0);
  serve::Server server(cfg, pool, kSerial);
  const serve::ServeStats s = server.run(w);
  const std::vector<serve::TenantUsage>& tenants = server.tenant_usage();
  ASSERT_FALSE(tenants.empty());
  ASSERT_LE(tenants.size(), 4u);
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  double cycles = 0.0;
  std::uint32_t last_tenant = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const serve::TenantUsage& t = tenants[i];
    if (i > 0) {
      EXPECT_GT(t.tenant, last_tenant);  // sorted, unique
    }
    last_tenant = t.tenant;
    requests += t.requests;
    ok += t.ok;
    cycles += t.device_cycles;
  }
  EXPECT_EQ(requests, static_cast<std::uint64_t>(server.completions().size()));
  EXPECT_EQ(ok, s.ok);
  // Per-tenant folds regroup the same doubles: tolerance-bounded only.
  EXPECT_NEAR(cycles, s.device_cycles_total,
              1e-9 * std::max(1.0, s.device_cycles_total));
}

TEST(ServeAttribution, SingleTenantCollapsesToOneRow) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.num_tenants = 1;
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 20, 6000.0);
  for (const serve::Request& q : w) EXPECT_EQ(q.tenant, 0u);
  serve::Server server(cfg, pool, kSerial);
  server.run(w);
  ASSERT_EQ(server.tenant_usage().size(), 1u);
  EXPECT_EQ(server.tenant_usage()[0].tenant, 0u);
}

TEST(ServeAttribution, TenantCountDoesNotPerturbSchedule) {
  // Tenant derivation is an independent re-mix of the workload hash bits:
  // changing num_tenants must not move a single arrival, kind, or outcome.
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig a = tiny_config();
  a.num_tenants = 1;
  serve::ServeConfig b = tiny_config();
  b.num_tenants = 8;
  const std::vector<serve::Request> wa =
      serve::make_open_loop_workload(pool, a, 30, 6000.0);
  const std::vector<serve::Request> wb =
      serve::make_open_loop_workload(pool, b, 30, 6000.0);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].id, wb[i].id);
    EXPECT_EQ(wa[i].deadline.arrival_us, wb[i].deadline.arrival_us);
    EXPECT_EQ(wa[i].kind, wb[i].kind);
    EXPECT_EQ(wa[i].graph_id, wb[i].graph_id);
    EXPECT_EQ(wa[i].source, wb[i].source);
  }
  serve::Server sa(a, pool, kSerial);
  serve::Server sb(b, pool, kSerial);
  const serve::ServeStats ra = sa.run(wa);
  const serve::ServeStats rb = sb.run(wb);
  EXPECT_EQ(ra.ok, rb.ok);
  EXPECT_EQ(ra.device_cycles_total, rb.device_cycles_total);
  EXPECT_EQ(ra.p99_us, rb.p99_us);
}

TEST(ServeAttribution, IdenticalAcrossHostEnginesChaosIncluded) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.faults = simt::FaultConfig::parse("launch=0.05,host=0.02");
  cfg.trace = true;
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 40, 8000.0);

  const auto run_engine = [&](const simt::ExecPolicy& policy,
                              serve::ServeStats* stats) {
    serve::Server server(cfg, pool, policy);
    *stats = server.run(w);
    std::ostringstream os;
    serve::write_serve_trace(os, server.tracer(), nullptr, cfg.num_shards,
                             &server.completions());
    return os.str();
  };
  serve::ServeStats ss, ps;
  const std::string serial = run_engine(kSerial, &ss);
  const std::string parallel = run_engine(kParallel, &ps);
  EXPECT_EQ(serial, parallel);  // unified trace, byte for byte
  EXPECT_EQ(ss.device_cycles_total, ps.device_cycles_total);
  EXPECT_EQ(ss.launches_total, ps.launches_total);
}

TEST(ServeAttribution, TracingOffIsByteInvisible) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig off = tiny_config();
  serve::ServeConfig on = tiny_config();
  on.trace = true;
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, off, 30, 6000.0);
  serve::Server soff(off, pool, kSerial);
  serve::Server son(on, pool, kSerial);
  const serve::ServeStats a = soff.run(w);
  const serve::ServeStats b = son.run(w);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.device_cycles_total, b.device_cycles_total);
  ASSERT_EQ(soff.completions().size(), son.completions().size());
  for (std::size_t i = 0; i < soff.completions().size(); ++i) {
    EXPECT_EQ(soff.completions()[i].device_cycles,
              son.completions()[i].device_cycles);
  }
  // Tracing off collects nothing.
  EXPECT_TRUE(soff.tracer().spans().empty());
  EXPECT_TRUE(soff.tracer().grids().empty());
  EXPECT_FALSE(son.tracer().spans().empty());
  EXPECT_FALSE(son.tracer().grids().empty());
}

TEST(ServeAttribution, UnifiedTraceCarriesAttributionRecord) {
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.trace = true;
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 20, 6000.0);
  serve::Server server(cfg, pool, kSerial);
  server.run(w);
  std::ostringstream os;
  serve::write_serve_trace(os, server.tracer(), nullptr, cfg.num_shards,
                           &server.completions());
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"cat\":\"serve-attribution\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"serve-grid\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"serve-grid-flow\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"serve-dispatch\""), std::string::npos);
  // Without completions, no attribution record — the legacy shape.
  std::ostringstream os2;
  serve::write_serve_trace(os2, server.tracer(), nullptr, cfg.num_shards);
  EXPECT_EQ(os2.str().find("serve-attribution"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ring-cap eviction keeps span trees well-formed.

TEST(ServeTracerRing, EvictsWholeRequestsOldestFirst) {
  serve::ServeTracer tracer(true, 6);
  const auto span = [](std::uint64_t request, serve::SpanKind kind) {
    serve::ServeSpan s;
    s.request = request;
    s.kind = kind;
    return s;
  };
  // Three requests, three spans each: recording the third request's spans
  // must evict request 1 (and then request 2) wholesale — never a partial
  // tree.
  for (std::uint64_t r = 1; r <= 3; ++r) {
    tracer.record(span(r, serve::SpanKind::kRequest));
    std::vector<simt::GridSlice> slices(1);
    tracer.record_grids(r, 0, r, 0, 1, r, 0.0, slices);
    tracer.record(span(r, serve::SpanKind::kExec));
    tracer.record(span(r, serve::SpanKind::kOk));
  }
  EXPECT_EQ(tracer.evicted_requests(), 1u);
  EXPECT_EQ(tracer.evicted_spans(), 3u);
  for (const serve::ServeSpan& s : tracer.spans()) {
    EXPECT_NE(s.request, 1u);
  }
  for (const serve::GridEvent& g : tracer.grids()) {
    EXPECT_NE(g.request, 1u);  // grid events evict with their request
  }
  // Survivors keep complete trees: every remaining request still has its
  // root span.
  for (std::uint64_t r = 2; r <= 3; ++r) {
    bool has_root = false;
    for (const serve::ServeSpan& s : tracer.spans()) {
      if (s.request == r && s.kind == serve::SpanKind::kRequest) {
        has_root = true;
      }
    }
    EXPECT_TRUE(has_root) << "request " << r;
  }
}

TEST(ServeTracerRing, UnboundedByDefault) {
  serve::ServeTracer tracer(true);
  for (std::uint64_t r = 0; r < 100; ++r) {
    serve::ServeSpan s;
    s.request = r;
    tracer.record(s);
  }
  EXPECT_EQ(tracer.spans().size(), 100u);
  EXPECT_EQ(tracer.evicted_requests(), 0u);
}

TEST(ServeTracerRing, CappedServerRunExportsWellFormedTrace) {
  // End to end: a capped tracer under a real server run must still export a
  // trace whose async spans balance and whose flows pair — the structural
  // invariants tools/check_trace.py enforces.
  const serve::SubgraphPool pool(tiny_pool_spec());
  serve::ServeConfig cfg = tiny_config();
  cfg.trace = true;
  cfg.trace_max_spans = 40;  // far fewer than the run records
  const std::vector<serve::Request> w =
      serve::make_open_loop_workload(pool, cfg, 40, 8000.0);
  serve::Server server(cfg, pool, kSerial);
  server.run(w);
  EXPECT_GT(server.tracer().evicted_requests(), 0u);
  EXPECT_LE(server.tracer().spans().size(), 40u);
  std::ostringstream os;
  serve::write_serve_trace(os, server.tracer(), nullptr, cfg.num_shards,
                           &server.completions());
  const std::string trace = os.str();
  // Async begin/end balance per request id: count both phases.
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = 0;
       (pos = trace.find("\"ph\":\"b\"", pos)) != std::string::npos; ++pos) {
    ++begins;
  }
  for (std::size_t pos = 0;
       (pos = trace.find("\"ph\":\"e\"", pos)) != std::string::npos; ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_NE(trace.find("trace_ring_evictions"), std::string::npos);
}

}  // namespace
