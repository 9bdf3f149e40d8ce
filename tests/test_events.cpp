// Cross-stream event (cudaEventRecord / cudaStreamWaitEvent analogue) tests:
// ordering semantics in the timing model, no-op cases, and the dual-queue
// template's fork-join pattern built on them.
#include <gtest/gtest.h>

#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/simt/device.h"
#include "src/simt/scheduler.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;

namespace {

simt::LaunchConfig cfg(int blocks, int threads, const char* name) {
  simt::LaunchConfig c;
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.name = name;
  return c;
}

simt::ScheduleResult run_schedule(simt::Device& dev) {
  simt::LaunchGraph graph = dev.graph();
  return simt::schedule(dev.spec(), graph);
}

TEST(Events, WaitOrdersAcrossStreams) {
  simt::Device dev;
  auto heavy = [](simt::LaneCtx& t) { t.compute(50000); };
  auto light = [](simt::LaneCtx& t) { t.compute(10); };
  dev.launch_threads(cfg(1, 64, "producer"), heavy, simt::StreamHandle{1});
  const simt::EventHandle ev = dev.record_event(simt::StreamHandle{1});
  dev.stream_wait(simt::StreamHandle{2}, ev);
  dev.launch_threads(cfg(1, 64, "consumer"), light, simt::StreamHandle{2});
  const auto s = run_schedule(dev);
  EXPECT_GE(s.node_start[1], s.node_end[0]);
}

TEST(Events, WithoutWaitStreamsOverlap) {
  simt::Device dev;
  auto heavy = [](simt::LaneCtx& t) { t.compute(50000); };
  auto light = [](simt::LaneCtx& t) { t.compute(10); };
  dev.launch_threads(cfg(1, 64, "producer"), heavy, simt::StreamHandle{1});
  dev.launch_threads(cfg(1, 64, "consumer"), light, simt::StreamHandle{2});
  const auto s = run_schedule(dev);
  EXPECT_LT(s.node_start[1], s.node_end[0]);
}

TEST(Events, EventOnEmptyStreamIsComplete) {
  simt::Device dev;
  simt::Session s = dev.session();
  const simt::EventHandle ev = dev.record_event(simt::StreamHandle{9});
  dev.stream_wait(simt::StreamHandle{2}, ev);
  dev.launch_threads(cfg(1, 32, "free"),
                     [](simt::LaneCtx& t) { t.compute(1); },
                     simt::StreamHandle{2});
  EXPECT_GT(s.report().total_cycles, 0.0);  // No deadlock.
}

TEST(Events, DependencyOnlyDelaysTheNextLaunch) {
  // Stream order carries the wait transitively; the wait itself attaches to
  // the next launch only.
  simt::Device dev;
  auto heavy = [](simt::LaneCtx& t) { t.compute(80000); };
  dev.launch_threads(cfg(1, 64, "p"), heavy, simt::StreamHandle{1});
  const auto ev = dev.record_event(simt::StreamHandle{1});
  dev.stream_wait(simt::StreamHandle{2}, ev);
  dev.launch_threads(cfg(1, 64, "c1"),
                     [](simt::LaneCtx& t) { t.compute(10); },
                     simt::StreamHandle{2});
  dev.launch_threads(cfg(1, 64, "c2"),
                     [](simt::LaneCtx& t) { t.compute(10); },
                     simt::StreamHandle{2});
  const auto s = run_schedule(dev);
  EXPECT_GE(s.node_start[1], s.node_end[0]);  // c1 waits via the event.
  EXPECT_GE(s.node_start[2], s.node_end[1]);  // c2 waits via stream order.
}

TEST(Events, UnknownEventThrows) {
  simt::Device dev;
  EXPECT_THROW(dev.stream_wait(simt::StreamHandle{1},
                               simt::EventHandle{42}),
               std::invalid_argument);
}

TEST(Events, ForkJoinDiamond) {
  // a -> (b, c in parallel) -> d
  simt::Device dev;
  auto work = [](simt::LaneCtx& t) { t.compute(30000); };
  dev.launch_threads(cfg(1, 64, "a"), work, simt::StreamHandle{1});
  const auto after_a = dev.record_event(simt::StreamHandle{1});
  dev.stream_wait(simt::StreamHandle{2}, after_a);
  dev.launch_threads(cfg(1, 64, "b"), work, simt::StreamHandle{1});
  dev.launch_threads(cfg(1, 64, "c"), work, simt::StreamHandle{2});
  const auto after_b = dev.record_event(simt::StreamHandle{1});
  const auto after_c = dev.record_event(simt::StreamHandle{2});
  dev.stream_wait(simt::StreamHandle{3}, after_b);
  dev.stream_wait(simt::StreamHandle{3}, after_c);
  dev.launch_threads(cfg(1, 64, "d"), work, simt::StreamHandle{3});
  const auto s = run_schedule(dev);
  // b and c overlap; d starts after both.
  EXPECT_LT(std::max(s.node_start[1], s.node_start[2]),
            std::min(s.node_end[1], s.node_end[2]));
  EXPECT_GE(s.node_start[3], s.node_end[1]);
  EXPECT_GE(s.node_start[3], s.node_end[2]);
}

TEST(Events, DualQueuePhase2KernelsOverlap) {
  // The dual-queue template forks its two phase-2 kernels across streams.
  const auto g = graph::generate_power_law(6000, 0, 400, 25.0, 5, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 1);
  simt::Device dev;
  nested::LoopParams p;
  p.lb_threshold = 32;
  apps::run_spmv(dev, a, x, nested::LoopTemplate::kDualQueue, p);
  const auto s = run_schedule(dev);
  // Nodes: 0 build, 1 small, 2 big. Both gated on build...
  EXPECT_GE(s.node_start[1], s.node_end[0]);
  EXPECT_GE(s.node_start[2], s.node_end[0]);
  // ...and overlapping each other.
  EXPECT_LT(std::max(s.node_start[1], s.node_start[2]),
            std::min(s.node_end[1], s.node_end[2]));
}

}  // namespace
