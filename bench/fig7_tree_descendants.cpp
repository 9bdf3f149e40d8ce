// Figure 7: Tree Descendants on synthetic trees — speedup of the GPU code
// variants (flat / rec-naive / rec-hier) over the better serial CPU code,
// with (a) sparsity 0 and varying outdegree, (b) fixed outdegree and varying
// sparsity, and (c) the profiling data (warp utilization, atomics, nested
// kernel calls) folded into the same tables.
//
// Scale note (DESIGN.md): the paper's depth-4 trees at outdegree 512 have
// ~134M nodes; the default sweep caps outdegree at 128 (~2.1M nodes) so the
// bench runs in seconds. --max-outdegree and --depth raise it.
#include "tree_sweep.h"

namespace {

int run(const nestpar::bench::Args& args, nestpar::bench::SuiteResult& out) {
  return nestpar::bench::tree_figure_run(
      args, out, nestpar::rec::TreeAlgo::kDescendants, "Figure 7");
}

constexpr const char* kSmokeFlags[] = {"--depth=2", "--max-outdegree=16"};

const nestpar::bench::Registration reg{{
    .name = "fig7_tree_descendants",
    .figure = "Figure 7",
    .description = "tree descendants: flat/rec-naive/rec-hier vs serial CPU",
    .usage = "fig7_tree_descendants [--depth=3] [--max-outdegree=128] "
             "[--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
