// Figure 8: Tree Heights — the same sweeps and profiling columns as
// Figure 7, for the max-reduction traversal (see tree_sweep.h).
#include "tree_sweep.h"

namespace {

int run(const nestpar::bench::Args& args, nestpar::bench::SuiteResult& out) {
  return nestpar::bench::tree_figure_run(
      args, out, nestpar::rec::TreeAlgo::kHeights, "Figure 8");
}

constexpr const char* kSmokeFlags[] = {"--depth=2", "--max-outdegree=16"};

const nestpar::bench::Registration reg{{
    .name = "fig8_tree_heights",
    .figure = "Figure 8",
    .description = "tree heights: flat/rec-naive/rec-hier vs serial CPU",
    .usage = "fig8_tree_heights [--depth=3] [--max-outdegree=128] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
