// Exact pins for the recursive templates (docs/ARCHITECTURE.md, rec layer):
// every tree template on both traversals, the extra-stream option, recursive
// BFS on both templates and stream counts, and every template that launches
// from the device with all of those launches refused. The rows were captured
// before the tree and BFS recursions were rebuilt from shared pieces in
// src/rec, so equality here is that rebuild's cycle-neutrality proof at test
// granularity, as SimulatorPerfPins is for the loop templates.
//
// Each row pins its own fault config, so the ambient-fault rerun
// (`nestpar_faults`) cannot perturb it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/apps/bfs.h"
#include "src/graph/generators.h"
#include "src/rec/tree_traversal.h"
#include "src/simt/device.h"
#include "src/tree/tree.h"

namespace {

namespace simt = nestpar::simt;
namespace rec = nestpar::rec;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace tree = nestpar::tree;

using rec::RecTemplate;
using rec::TreeAlgo;

enum class Work { kTree, kBfs };

struct RecPin {
  Work work;
  RecTemplate tmpl;
  TreeAlgo algo;  // Tree rows only.
  int streams;
  bool refuse;
  double total_cycles;
  std::uint64_t warp_steps, active_lane_ops;
  std::uint64_t gld_req, gld_xfer, gst_req, gst_xfer;
  std::uint64_t atomic_ops, shared_ops, compute_ops;
  std::uint64_t host_launches, device_launches, blocks, warps;
  double resident_warp_cycles, sm_active_cycles;
  std::uint64_t refused, degraded;
};

constexpr auto kTree = Work::kTree;
constexpr auto kBfs = Work::kBfs;
constexpr auto kDesc = TreeAlgo::kDescendants;
constexpr auto kHeights = TreeAlgo::kHeights;

constexpr RecPin kRecPins[] = {
    {kTree, RecTemplate::kFlat, kDesc, 1, false, 25680, 324, 10066, 20132,
     21760, 4260, 4352, 3968, 0, 0, 2, 0, 12, 72, 533952, 88992, 0, 0},
    {kTree, RecTemplate::kRecNaive, kDesc, 1, false, 417956, 1318, 23541,
     85120, 152576, 4260, 4352, 1064, 0, 0, 2, 132, 139, 302, 1271196, 629958,
     0, 0},
    {kTree, RecTemplate::kRecHier, kDesc, 1, false, 105552, 3858, 65044,
     251168, 390784, 4676, 17664, 232, 823, 0, 2, 28, 238, 500, 1232628, 610674,
     0, 0},
    {kTree, RecTemplate::kAutoropes, kDesc, 1, false, 31058, 391, 7452, 17032,
     105600, 8520, 15232, 0, 0, 1064, 6, 0, 15, 90, 159420, 26570, 0, 0},
    {kTree, RecTemplate::kRecCons, kDesc, 1, false, 210585.60000000001, 1270,
     15829, 92776, 147328, 6420, 38912, 1064, 0, 0, 2, 4, 25, 73, 410388,
     276294, 0, 0},
    {kTree, RecTemplate::kFlat, kHeights, 1, false, 25680, 324, 10066, 20132,
     21760, 4260, 4352, 3968, 0, 0, 2, 0, 12, 72, 533952, 88992, 0, 0},
    {kTree, RecTemplate::kRecNaive, kHeights, 1, false, 417956, 1318, 23541,
     85120, 152576, 4260, 4352, 1064, 0, 0, 2, 132, 139, 302, 1271196, 629958,
     0, 0},
    {kTree, RecTemplate::kRecHier, kHeights, 1, false, 105552, 3858, 65044,
     251168, 390784, 4676, 17664, 232, 823, 0, 2, 28, 238, 500, 1232628, 610674,
     0, 0},
    {kTree, RecTemplate::kAutoropes, kHeights, 1, false, 31058, 391, 7452,
     17032, 105600, 8520, 15232, 0, 0, 1064, 6, 0, 15, 90, 159420, 26570, 0, 0},
    {kTree, RecTemplate::kRecCons, kHeights, 1, false, 210585.60000000001,
     1270, 15829, 92776, 147328, 6420, 38912, 1064, 0, 0, 2, 4, 25, 73, 410388,
     276294, 0, 0},
    {kTree, RecTemplate::kRecNaive, kDesc, 2, false, 417956, 1318, 23541,
     85120, 152576, 4260, 4352, 1064, 0, 0, 2, 132, 139, 302, 1271196, 629958,
     0, 0},
    {kBfs, RecTemplate::kRecNaive, kDesc, 1, false, 4517940, 13079, 329928,
     1260744, 1453824, 0, 0, 13170, 0, 0, 1, 1572, 1573, 3146, 13891524,
     6945762, 0, 0},
    {kBfs, RecTemplate::kRecNaive, kDesc, 2, false, 4508436, 13079, 329928,
     1260744, 1453824, 0, 0, 13170, 0, 0, 1, 1572, 1573, 3146, 13891524,
     6945762, 0, 0},
    {kBfs, RecTemplate::kRecHier, kDesc, 1, false, 2074216, 48930, 560532,
     460084, 2822528, 0, 0, 9869, 434915, 0, 1, 727, 6208, 12416, 27093900,
     12683592, 0, 0},
    {kBfs, RecTemplate::kRecHier, kDesc, 2, false, 2074216, 48930, 560532,
     460084, 2822528, 0, 0, 9869, 434915, 0, 1, 727, 6208, 12416, 27093900,
     12805650, 0, 0},
    {kTree, RecTemplate::kRecNaive, kDesc, 1, true, 537480, 2569, 8660, 21800,
     660736, 8504, 139648, 8, 0, 1056, 2, 0, 7, 38, 1074936, 531828, 20, 5},
    {kTree, RecTemplate::kRecHier, kDesc, 1, true, 210624, 7597, 10723, 29864,
     690816, 8504, 140160, 8, 47, 1056, 2, 0, 14, 52, 1719588, 854154, 20, 5},
    {kTree, RecTemplate::kRecCons, kDesc, 1, true, 1291308, 4377, 5408, 12504,
     383104, 6420, 38912, 1064, 0, 0, 2, 0, 7, 37, 1299756, 1285656, 16, 4},
    {kBfs, RecTemplate::kRecNaive, kDesc, 1, true, 37782930, 343959, 355307,
     818812, 26168576, 0, 0, 150595, 0, 0, 1, 0, 1, 2, 75557388, 37778694, 9,
     9},
    {kBfs, RecTemplate::kRecHier, kDesc, 1, true, 36405552, 345639, 358962,
     827076, 26184960, 0, 0, 150716, 1430, 0, 1, 0, 11, 22, 75910332, 37955166,
     47, 47},
};

tree::Tree pin_tree() {
  return tree::generate_tree({.depth = 4, .outdegree = 8, .sparsity = 1}, 5);
}

graph::Csr pin_graph() { return graph::generate_uniform_random(600, 0, 16, 3); }

class RecPins : public ::testing::TestWithParam<RecPin> {};

TEST_P(RecPins, MatchesPreRefactorTemplatesExactly) {
  const RecPin& pin = GetParam();
  simt::Device dev;
  simt::FaultConfig faults;
  if (pin.refuse) faults.device_launch_rate = 1.0;
  dev.set_fault_config(faults);
  simt::Session session = dev.session();
  if (pin.work == kTree) {
    const tree::Tree tr = pin_tree();
    rec::RecOptions opt;
    opt.streams_per_block = pin.streams;
    const auto got =
        rec::run_tree_traversal(dev, tr, {pin.algo, pin.tmpl, opt, {}});
    EXPECT_EQ(got.values, rec::tree_traversal_serial_iterative(tr, pin.algo));
  } else {
    const graph::Csr g = pin_graph();
    rec::RecOptions opt;
    opt.streams_per_block = pin.streams;
    EXPECT_EQ(apps::bfs_recursive_gpu(dev, g, 0, pin.tmpl, opt),
              apps::bfs_serial_iterative(g, 0));
  }
  const simt::RunReport r = session.report();
  const simt::Metrics& m = r.aggregate;

  EXPECT_EQ(r.total_cycles, pin.total_cycles);  // bit-exact double
  EXPECT_EQ(m.warp_steps, pin.warp_steps);
  EXPECT_EQ(m.active_lane_ops, pin.active_lane_ops);
  EXPECT_EQ(m.gld_requested_bytes, pin.gld_req);
  EXPECT_EQ(m.gld_transferred_bytes, pin.gld_xfer);
  EXPECT_EQ(m.gst_requested_bytes, pin.gst_req);
  EXPECT_EQ(m.gst_transferred_bytes, pin.gst_xfer);
  EXPECT_EQ(m.atomic_ops, pin.atomic_ops);
  EXPECT_EQ(m.shared_ops, pin.shared_ops);
  EXPECT_EQ(m.compute_ops, pin.compute_ops);
  EXPECT_EQ(m.host_launches, pin.host_launches);
  EXPECT_EQ(m.device_launches, pin.device_launches);
  EXPECT_EQ(m.blocks, pin.blocks);
  EXPECT_EQ(m.warps, pin.warps);
  EXPECT_EQ(m.resident_warp_cycles, pin.resident_warp_cycles);
  EXPECT_EQ(m.sm_active_cycles, pin.sm_active_cycles);
  EXPECT_EQ(r.robustness.refused_total(), pin.refused);
  EXPECT_EQ(r.robustness.degraded, pin.degraded);
}

INSTANTIATE_TEST_SUITE_P(
    TreesAndBfs, RecPins, ::testing::ValuesIn(kRecPins),
    [](const ::testing::TestParamInfo<RecPin>& info) {
      const RecPin& p = info.param;
      std::string n = p.work == kTree ? "tree_" : "bfs";
      if (p.work == kTree) n += rec::name(p.algo);
      n += '_';
      n += rec::name(p.tmpl);
      n += "_s";
      n += std::to_string(p.streams);
      if (p.refuse) n += "_refused";
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
