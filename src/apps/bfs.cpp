#include "src/apps/bfs.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/rec/recursion.h"

namespace nestpar::apps {

namespace {

using simt::BlockCtx;
using simt::Device;
using simt::Kernel;
using simt::LaneCtx;
using simt::LaunchConfig;

/// One recursive BFS, and its hooks into the shared recursion
/// (src/rec/recursion.h): a lane relaxes one neighbor of a reached node and
/// fire-and-forget recurses on it if its level improved.
struct BfsCtx : rec::RecShape {
  static constexpr bool kAsync = true;
  const graph::Csr* g;
  std::uint32_t* level;

  std::optional<std::uint32_t> enter(LaneCtx& t, std::uint32_t v) const {
    const std::uint32_t lv = t.ld(&level[v]);
    if (lv == kBfsUnreached) return std::nullopt;  // Stale queued traversal.
    return lv;
  }
  bool expand(LaneCtx& t, std::uint32_t lv, std::uint32_t n) const {
    const std::uint32_t old = t.atomic_min(&level[n], lv + 1);
    return old > lv + 1 && g->degree(n) > 0;
  }
  /// Degraded path of both templates: the lane whose launch was refused
  /// relaxes the reachable improvement region from `start` iteratively
  /// (explicit worklist), with the same atomic_min discipline and no further
  /// nested launches.
  void fallback(LaneCtx& t, std::uint32_t start) const {
    std::vector<std::uint32_t> work{start};
    while (!work.empty()) {
      const std::uint32_t v = work.back();
      work.pop_back();
      const std::uint32_t lv = t.ld(&level[v]);
      if (lv == kBfsUnreached) continue;
      const std::uint32_t off = t.ld(&g->row_offsets[v]);
      const std::uint32_t end = t.ld(&g->row_offsets[v + 1]);
      for (std::uint32_t e = off; e < end; ++e) {
        const std::uint32_t nb = t.ld(&g->col_indices[e]);
        const std::uint32_t old = t.atomic_min(&level[nb], lv + 1);
        if (old > lv + 1 && g->degree(nb) > 0) work.push_back(nb);
      }
    }
  }
  void after(LaneCtx&, std::uint32_t, std::uint32_t) const {}
};

/// Hierarchical recursion: one block per neighbor (child), relaxed by thread
/// 0; threads over the child's neighbors (grandchildren); improved
/// grandchildren recurse with a grid-per-node fire-and-forget launch.
Kernel make_hier_bfs_kernel(std::shared_ptr<const BfsCtx> ctx,
                            std::uint32_t v) {
  return [ctx, v](BlockCtx& blk) {
    const graph::Csr& g = *ctx->g;
    auto improved = blk.shared_array<std::int32_t>(1);
    auto child = blk.shared_array<std::uint32_t>(1);

    blk.each_thread([&](LaneCtx& t) {
      if (t.thread_idx() != 0) return;
      const std::uint32_t lv = t.ld(&ctx->level[v]);
      if (lv == kBfsUnreached) return;
      const std::uint32_t off = t.ld(&g.row_offsets[v]);
      const std::uint32_t c =
          t.ld(&g.col_indices[off + static_cast<std::uint32_t>(blk.block_idx())]);
      t.sh_st(&child[0], c);
      const std::uint32_t old = t.atomic_min(&ctx->level[c], lv + 1);
      if (old > lv + 1) t.sh_st(&improved[0], 1);
    });

    // Each lane expands its share of the improved child's neighbors, as
    // rec-naive does, into grid-per-node children of this kernel.
    blk.each_thread([&](LaneCtx& t) {
      if (t.sh_ld(&improved[0]) == 0) return;
      rec::expand_lane(t, *ctx, t.sh_ld(&child[0]), [&](std::uint32_t gch) {
        return std::pair{
            rec::rec_grid(ctx->name, static_cast<int>(g.degree(gch))),
            make_hier_bfs_kernel(ctx, gch)};
      });
    });
  };
}

}  // namespace

std::vector<std::uint32_t> bfs_flat_gpu(Device& dev, const graph::Csr& g,
                                        std::uint32_t src, int block_size) {
  const std::uint32_t n = g.num_nodes();
  if (src >= n) throw std::invalid_argument("bfs_flat_gpu: source oob");
  std::vector<std::uint32_t> level(n, kBfsUnreached);
  level[src] = 0;
  auto changed = std::make_shared<int>(1);

  const LaunchConfig cfg = rec::thread_mapped(n, "bfs/flat", block_size);

  std::uint32_t cur = 0;
  while (*changed != 0) {
    *changed = 0;
    dev.launch_threads(cfg, [&, cur, n](LaneCtx& t) {
      for (std::int64_t v = t.global_idx(); v < n; v += t.grid_threads()) {
        if (t.ld(&level[static_cast<std::size_t>(v)]) != cur) continue;
        const auto u = static_cast<std::uint32_t>(v);
        const std::uint32_t off = t.ld(&g.row_offsets[u]);
        const std::uint32_t end = t.ld(&g.row_offsets[u + 1]);
        for (std::uint32_t e = off; e < end; ++e) {
          const std::uint32_t nb = t.ld(&g.col_indices[e]);
          // Benign race: several frontier nodes may write the same value.
          if (t.ld(&level[nb]) > cur + 1) {
            t.st(&level[nb], cur + 1);
            t.st(changed.get(), 1);
          }
        }
      }
    });
    ++cur;
    if (cur > n) throw std::logic_error("bfs_flat_gpu: failed to converge");
  }
  return level;
}

std::vector<std::uint32_t> bfs_recursive_gpu(Device& dev, const graph::Csr& g,
                                             std::uint32_t src,
                                             rec::RecTemplate tmpl,
                                             const rec::RecOptions& opt) {
  const std::uint32_t n = g.num_nodes();
  if (src >= n) throw std::invalid_argument("bfs_recursive_gpu: source oob");
  opt.validate();
  if (tmpl != rec::RecTemplate::kRecNaive &&
      tmpl != rec::RecTemplate::kRecHier) {
    throw std::invalid_argument(
        "bfs_recursive_gpu: template '" + std::string(rec::name(tmpl)) +
        "' has no recursive BFS instantiation (rec-naive and rec-hier do; "
        "flat BFS is bfs_flat_gpu)");
  }
  auto level = std::vector<std::uint32_t>(n, kBfsUnreached);
  level[src] = 0;
  if (g.degree(src) == 0) return level;

  const auto ctx = std::make_shared<const BfsCtx>(
      BfsCtx{{g.row_offsets.data(), g.col_indices.data(),
              opt.streams_per_block, "bfs/" + std::string(rec::name(tmpl))},
             &g, level.data()});
  if (tmpl == rec::RecTemplate::kRecNaive) {
    dev.launch(rec::rec_grid(ctx->name), rec::make_rec_naive_kernel(ctx, src));
  } else {
    dev.launch(rec::rec_grid(ctx->name, static_cast<int>(g.degree(src))),
               make_hier_bfs_kernel(ctx, src));
  }
  return level;
}

std::vector<std::uint32_t> bfs_serial_iterative(const graph::Csr& g,
                                                std::uint32_t src,
                                                simt::CpuTimer* timer) {
  const std::uint32_t n = g.num_nodes();
  if (src >= n) throw std::invalid_argument("bfs_serial_iterative: oob");
  std::vector<std::uint32_t> level(n, kBfsUnreached);
  std::vector<std::uint8_t> frontier(n, 0), updating(n, 0), visited(n, 0);
  level[src] = 0;
  frontier[src] = 1;
  visited[src] = 1;
  // Topology-driven two-pass sweep: the direct CPU port of the GPU baseline
  // [5] (frontier kernel + update kernel, each scanning every node per
  // level). The full scans are what let the recursive (frontier-queue) form
  // below beat it — the 1.25-3.3x gap the paper reports.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint8_t f =
          timer != nullptr ? timer->ld(&frontier[v]) : frontier[v];
      if (timer != nullptr) timer->compute(1);
      if (f == 0) continue;
      frontier[v] = 0;
      if (timer != nullptr) timer->st(&frontier[v], std::uint8_t{0});
      const std::uint32_t lv =
          timer != nullptr ? timer->ld(&level[v]) : level[v];
      for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1];
           ++e) {
        const std::uint32_t nb =
            timer != nullptr ? timer->ld(&g.col_indices[e]) : g.col_indices[e];
        // [5] guards discovery on the visited and updating flags.
        const std::uint8_t vx =
            timer != nullptr ? timer->ld(&visited[nb]) : visited[nb];
        const std::uint8_t up =
            timer != nullptr ? timer->ld(&updating[nb]) : updating[nb];
        if (timer != nullptr) timer->compute(1);
        if (vx == 0 && up == 0) {
          level[nb] = lv + 1;
          updating[nb] = 1;
          if (timer != nullptr) {
            timer->st(&level[nb], lv + 1);
            timer->st(&updating[nb], std::uint8_t{1});
          }
        }
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint8_t u =
          timer != nullptr ? timer->ld(&updating[v]) : updating[v];
      if (timer != nullptr) timer->compute(1);
      if (u == 0) continue;
      updating[v] = 0;
      frontier[v] = 1;
      visited[v] = 1;
      if (timer != nullptr) {
        timer->st(&updating[v], std::uint8_t{0});
        timer->st(&frontier[v], std::uint8_t{1});
        timer->st(&visited[v], std::uint8_t{1});
      }
      changed = true;
    }
  }
  return level;
}

std::vector<std::uint32_t> bfs_serial_recursive(const graph::Csr& g,
                                                std::uint32_t src,
                                                simt::CpuTimer* timer) {
  const std::uint32_t n = g.num_nodes();
  if (src >= n) throw std::invalid_argument("bfs_serial_recursive: oob");
  std::vector<std::uint32_t> level(n, kBfsUnreached);
  level[src] = 0;

  // Recursion over frontiers: visit(frontier) expands one level and
  // tail-recurses on the next frontier (eliminating the tail call yields the
  // iterative sweep above, per the paper's §II.C). Work-efficient: each node
  // is expanded exactly once.
  std::vector<std::uint32_t> frontier{src};
  std::vector<std::uint32_t> next;
  auto visit = [&](auto&& self, std::uint32_t depth) -> void {
    if (frontier.empty()) return;
    if (timer != nullptr) timer->call();
    next.clear();
    for (const std::uint32_t v : frontier) {
      for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1];
           ++e) {
        const std::uint32_t nb =
            timer != nullptr ? timer->ld(&g.col_indices[e]) : g.col_indices[e];
        const std::uint32_t ln =
            timer != nullptr ? timer->ld(&level[nb]) : level[nb];
        if (timer != nullptr) timer->compute(1);
        if (ln == kBfsUnreached) {
          level[nb] = depth + 1;
          if (timer != nullptr) timer->st(&level[nb], depth + 1);
          next.push_back(nb);
        }
      }
    }
    frontier.swap(next);
    self(self, depth + 1);
  };
  visit(visit, 0);
  return level;
}

}  // namespace nestpar::apps
