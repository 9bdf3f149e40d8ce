// Structural round-trip tests for write_chrome_trace: the exported document
// must be valid JSON with one complete event per launched grid, one timeline
// row (tid) per stream, and the per-grid metrics in the event args — parsed
// back with the same bench JSON parser the results pipeline uses. Also
// covers the profiling extension: counter/instant events appear only under
// an active profile, and only the samples recorded into that profile.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "bench/json.h"
#include "src/simt/device.h"
#include "src/simt/profiler.h"
#include "src/simt/scheduler.h"
#include "src/simt/trace_export.h"

namespace simt = nestpar::simt;
namespace bench = nestpar::bench;

namespace {

void launch_named(simt::Device& dev, const std::string& name, int stream,
                  int grid_blocks) {
  simt::LaunchConfig cfg;
  cfg.grid_blocks = grid_blocks;
  cfg.block_threads = 32;
  cfg.name = name;
  dev.launch_threads(
      cfg, [](simt::LaneCtx& t) { t.compute(1 + t.global_idx() % 3); },
      simt::StreamHandle{stream});
}

bench::JsonValue export_and_parse(simt::Device& dev) {
  std::ostringstream out;
  simt::write_chrome_trace(out, dev);
  return bench::parse_json(out.str());
}

TEST(TraceExportTest, OneCompleteEventPerGridOneRowPerStream) {
  simt::Device dev;
  simt::Session s = dev.session();
  launch_named(dev, "trace/a", 0, 2);
  launch_named(dev, "trace/b", 1, 3);
  launch_named(dev, "trace/a", 0, 2);

  const bench::JsonValue doc = export_and_parse(dev);
  ASSERT_TRUE(doc.is_object());
  const bench::JsonValue& events =
      bench::require(doc.object(), "traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array().size(), dev.graph().nodes.size());
  ASSERT_EQ(events.array().size(), 3u);

  std::set<std::uint32_t> graph_streams;
  for (const simt::KernelNode& n : dev.graph().nodes) {
    graph_streams.insert(n.stream);
  }
  std::set<std::uint32_t> trace_tids;
  for (std::size_t i = 0; i < events.array().size(); ++i) {
    const bench::JsonValue& ev = events.array()[i];
    ASSERT_TRUE(ev.is_object());
    const bench::JsonObject& obj = ev.object();
    EXPECT_EQ(bench::require_str(obj, "ph"), "X");
    EXPECT_FALSE(bench::require_str(obj, "name").empty());
    EXPECT_GE(bench::require_num(obj, "dur"), 0.0);
    trace_tids.insert(
        static_cast<std::uint32_t>(bench::require_num(obj, "tid")));

    const bench::JsonValue& args = bench::require(obj, "args");
    ASSERT_TRUE(args.is_object());
    const simt::KernelNode& node = dev.graph().nodes[i];
    EXPECT_EQ(bench::require_num(args.object(), "grid_blocks"),
              node.grid_blocks);
    EXPECT_EQ(bench::require_num(args.object(), "block_threads"),
              node.block_threads);
    EXPECT_EQ(bench::require_num(args.object(), "nest_depth"),
              node.nest_depth);
    // The exporter prints warp_eff at the stream's default 6-significant-
    // digit precision, so compare with matching tolerance.
    EXPECT_NEAR(bench::require_num(args.object(), "warp_eff"),
                node.metrics.warp_execution_efficiency(), 1e-5);
  }
  EXPECT_EQ(trace_tids, graph_streams);
}

TEST(TraceExportTest, EmptySessionYieldsEmptyEventArray) {
  simt::Device dev;
  simt::Session s = dev.session();
  const bench::JsonValue doc = export_and_parse(dev);
  ASSERT_TRUE(doc.is_object());
  const bench::JsonValue& events =
      bench::require(doc.object(), "traceEvents");
  ASSERT_TRUE(events.is_array());
  EXPECT_TRUE(events.array().empty());
}

std::map<std::string, int> count_phases(const bench::JsonValue& doc) {
  std::map<std::string, int> by_ph;
  for (const bench::JsonValue& ev :
       bench::require(doc.object(), "traceEvents").array()) {
    ++by_ph[bench::require_str(ev.object(), "ph")];
  }
  return by_ph;
}

TEST(TraceExportTest, CounterAndInstantEventsAppearOnlyWhenProfiling) {
  // Profiling off: prof_counter is a no-op, only "X" events exist.
  {
    simt::Device dev;
    simt::Session s = dev.session();
    launch_named(dev, "trace/a", 0, 2);
    dev.prof_counter("trace/queue", 5.0);
    auto by_ph = count_phases(export_and_parse(dev));
    EXPECT_EQ(by_ph["X"], 1);
    EXPECT_EQ(by_ph.count("C"), 0u);
    EXPECT_EQ(by_ph.count("i"), 0u);
  }

  // Profiling on: the same calls materialize as counter + instant events
  // (plus the critical-path track: an M row-name event and one X slice per
  // attributed chain segment).
  simt::Profile profile;
  const simt::ProfileScope scope(profile);
  {
    simt::Device dev;
    simt::Session s = dev.session();
    dev.prof_counter("trace/queue", 5.0);
    launch_named(dev, "trace/a", 0, 2);
    dev.prof_instant("trace/flush", "queue");
    auto by_ph = count_phases(export_and_parse(dev));
    EXPECT_GE(by_ph["X"], 2);  // the grid slice + critical-path segments
    EXPECT_EQ(by_ph["C"], 1);
    EXPECT_EQ(by_ph["i"], 1);
    EXPECT_EQ(by_ph["M"], 1);  // critical-path row name
  }
}

// A trace carries the samples of the profile active at export, so samples
// recorded under an earlier scope stay out of a later session's trace.
TEST(TraceExportTest, EarlierScopesSamplesStayOutOfTrace) {
  simt::Device dev;
  simt::Profile earlier;
  {
    const simt::ProfileScope scope(earlier);
    simt::Session s = dev.session();
    launch_named(dev, "trace/a", 0, 2);
    dev.prof_counter("trace/earlier", 1.0);
    dev.prof_instant("trace/earlier_flush", "queue");
  }
  simt::Profile later;
  const simt::ProfileScope scope(later);
  simt::Session s = dev.session();
  launch_named(dev, "trace/b", 0, 2);
  dev.prof_counter("trace/later", 2.0);
  std::ostringstream out;
  simt::write_chrome_trace(out, dev);
  EXPECT_EQ(out.str().find("trace/earlier"), std::string::npos);
  EXPECT_NE(out.str().find("trace/later"), std::string::npos);
  const auto by_ph = count_phases(bench::parse_json(out.str()));
  EXPECT_EQ(by_ph.at("C"), 1);
  EXPECT_EQ(by_ph.count("i"), 0u);
  EXPECT_EQ(earlier.counters.size(), 1u);
}

TEST(TraceExportTest, FlowEventsAndCritPathTrackOnlyWhenProfiling) {
  const auto launch_tree = [](simt::Device& dev) {
    simt::LaunchConfig cfg;
    cfg.grid_blocks = 1;
    cfg.block_threads = 1;
    cfg.name = "trace/parent";
    dev.launch_threads(cfg, [](simt::LaneCtx& t) {
      t.compute(2000);
      simt::LaunchConfig child;
      child.grid_blocks = 2;
      child.block_threads = 32;
      child.name = "trace/child";
      auto body = [](simt::LaneCtx& c) { c.compute(4000); };
      EXPECT_TRUE(t.launch_threads(child, body));
      EXPECT_TRUE(t.launch_threads(child, body));
    });
  };

  // Profiling off: no flow events, no critical-path row — byte-layout parity
  // with the pre-analyzer exporter.
  {
    simt::Device dev;
    simt::Session s = dev.session();
    launch_tree(dev);
    const bench::JsonValue doc = export_and_parse(dev);
    for (const bench::JsonValue& ev :
         bench::require(doc.object(), "traceEvents").array()) {
      const std::string ph = bench::require_str(ev.object(), "ph");
      EXPECT_TRUE(ph != "s" && ph != "f" && ph != "M") << ph;
    }
  }

  simt::Profile profile;
  const simt::ProfileScope scope(profile);
  simt::Device dev;
  simt::Session s = dev.session();
  launch_tree(dev);
  const bench::JsonValue doc = export_and_parse(dev);

  const std::uint32_t crit_tid = dev.graph().num_streams;
  int flow_starts = 0, flow_ends = 0;
  int crit_slices = 0;
  double crit_us = 0.0;
  for (const bench::JsonValue& ev :
       bench::require(doc.object(), "traceEvents").array()) {
    const bench::JsonObject& obj = ev.object();
    const std::string ph = bench::require_str(obj, "ph");
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_ends;
    if (ph == "X" &&
        static_cast<std::uint32_t>(bench::require_num(obj, "tid")) ==
            crit_tid) {
      ++crit_slices;
      crit_us += bench::require_num(obj, "dur");
      EXPECT_EQ(bench::require_str(obj, "cat"), "critical-path");
    }
  }
  // One s/f pair per device-launched grid.
  std::uint64_t device_grids = 0;
  for (const simt::KernelNode& n : dev.graph().nodes) {
    if (n.origin == simt::LaunchOrigin::kDevice) ++device_grids;
  }
  EXPECT_EQ(device_grids, 2u);
  EXPECT_EQ(flow_starts, static_cast<int>(device_grids));
  EXPECT_EQ(flow_ends, static_cast<int>(device_grids));
  // The critical-path slices tile the whole makespan (in trace µs).
  ASSERT_GT(crit_slices, 0);
  simt::LaunchGraph graph = dev.graph();
  const simt::ScheduleResult sched = simt::schedule(dev.spec(), graph);
  EXPECT_NEAR(crit_us, dev.spec().cycles_to_us(sched.total_cycles),
              1e-3 * dev.spec().cycles_to_us(sched.total_cycles) + 1e-6);
}

}  // namespace
