#include "src/rec/tree_traversal.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/rec/recursion.h"
#include "src/simt/aligned.h"
#include "src/simt/profiler.h"

namespace nestpar::rec {

using simt::BlockCtx;
using simt::Device;
using simt::Kernel;
using simt::LaneCtx;
using simt::LaunchConfig;
using tree::Tree;

std::string_view name(RecTemplate t) {
  switch (t) {
    case RecTemplate::kFlat: return "flat";
    case RecTemplate::kRecNaive: return "rec-naive";
    case RecTemplate::kRecHier: return "rec-hier";
    case RecTemplate::kAutoropes: return "autoropes";
    case RecTemplate::kRecCons: return "rec-cons";
  }
  return "?";
}

std::string_view name(TreeAlgo a) {
  switch (a) {
    case TreeAlgo::kDescendants: return "descendants";
    case TreeAlgo::kHeights: return "heights";
  }
  return "?";
}

void RecOptions::validate() const {
  if (streams_per_block < 1) {
    throw std::invalid_argument(
        "RecOptions: streams_per_block must be >= 1 (got " +
        std::to_string(streams_per_block) + ")");
  }
}

namespace {

/// Reduction semantics of the two traversals, shared by every template.
struct TraversalOps {
  TreeAlgo algo;

  /// Value of a node whose `nc` children are all leaves (or nc == 0).
  std::uint32_t two_level(std::uint32_t nc) const {
    if (algo == TreeAlgo::kDescendants) return 1 + nc;
    return nc > 0 ? 2 : 1;
  }
  /// Fold a finished child value into its parent's running value.
  std::uint32_t fold(std::uint32_t acc, std::uint32_t child_value) const {
    return algo == TreeAlgo::kDescendants ? acc + child_value
                                          : std::max(acc, child_value + 1);
  }
  /// Recursive kernels: fold a finished child value into its parent.
  void combine(LaneCtx& t, std::uint32_t* parent,
               std::uint32_t child_value) const {
    if (algo == TreeAlgo::kDescendants) {
      t.atomic_add(parent, child_value);
    } else {
      t.atomic_max(parent, child_value + 1);
    }
  }
  /// Flat kernel: a node at distance `dist` below ancestor `cell` counts
  /// once toward its size and bounds its height.
  void flat_update(LaneCtx& t, std::uint32_t* cell, std::uint32_t dist) const {
    combine(t, cell, algo == TreeAlgo::kDescendants ? 1u : dist);
  }
};

/// Charge the loads a kernel performs to test whether `v` has children.
bool charged_is_internal(LaneCtx& t, const Tree& tr, std::uint32_t v) {
  const std::uint32_t off = t.ld(&tr.child_offsets[v]);
  const std::uint32_t end = t.ld(&tr.child_offsets[v + 1]);
  return end > off;
}

/// Explicit-stack post-order DFS of the subtree under `root` by one lane,
/// storing each node's final value as it is popped — no atomics. It is
/// autoropes' per-thread traversal and the launch-free path of rec-naive and
/// rec-hier when a child launch is refused (pool/depth/heap exhaustion or a
/// persistent injected fault): every node under `root` still ends with its
/// final value, so the parent-side combine stays valid.
void post_order(LaneCtx& t, const Tree& tr, const TraversalOps& ops,
                std::uint32_t* values, std::uint32_t root) {
  struct Frame {
    std::uint32_t node;
    std::uint32_t next_child;  // index into child_offsets range
    std::uint32_t acc;
  };
  std::vector<Frame> stack{Frame{root, 0, 1}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    const std::uint32_t off = t.ld(&tr.child_offsets[f.node]);
    const std::uint32_t end = t.ld(&tr.child_offsets[f.node + 1]);
    if (off + f.next_child < end) {
      const std::uint32_t c = t.ld(&tr.children[off + f.next_child]);
      ++f.next_child;
      stack.push_back(Frame{c, 0, 1});
    } else {
      const Frame done = f;
      t.st(&values[done.node], done.acc);
      stack.pop_back();
      if (!stack.empty()) {
        t.compute(1);
        stack.back().acc = ops.fold(stack.back().acc, done.acc);
      }
    }
  }
}

// --- Flat template (Figure 3(c)) --------------------------------------------

void run_flat(Device& dev, const Tree& tr, std::uint32_t* values,
              const TraversalOps& ops, const std::string& base) {
  const std::uint32_t n = tr.num_nodes();
  dev.launch_threads(thread_mapped(n, base + "/flat"), [&tr, values, ops,
                                                         n](LaneCtx& t) {
    for (std::int64_t v = t.global_idx(); v < n; v += t.grid_threads()) {
      // Walk to the root, updating every ancestor (the atomic pressure the
      // paper's Figs. 7/8 profiling columns count).
      std::uint32_t p = t.ld(&tr.parent[v]);
      std::uint32_t dist = 1;
      while (p != Tree::kNoParent) {
        ops.flat_update(t, &values[p], dist);
        p = t.ld(&tr.parent[p]);
        ++dist;
      }
    }
  });
}

// --- Naive and hierarchical recursion (Figure 3(d), 3(e)) --------------------

/// One rec-naive or rec-hier traversal, and its hooks into the shared
/// recursion (src/rec/recursion.h): expand every internal child with a
/// synchronous launch, then combine the child's final value.
struct RecCtx : RecShape {
  static constexpr bool kAsync = false;
  const Tree* tree;
  std::uint32_t* values;
  TraversalOps ops;

  std::optional<std::uint32_t> enter(LaneCtx&, std::uint32_t) const {
    return 0;
  }
  bool expand(LaneCtx& t, std::uint32_t, std::uint32_t c) const {
    return charged_is_internal(t, *tree, c);
  }
  void fallback(LaneCtx& t, std::uint32_t c) const {
    post_order(t, *tree, ops, values, c);
  }
  void after(LaneCtx& t, std::uint32_t node, std::uint32_t c) const {
    const std::uint32_t cv = t.ld(&values[c]);
    ops.combine(t, &values[node], cv);
  }
};

Kernel make_hier_kernel(std::shared_ptr<const RecCtx> ctx,
                        std::uint32_t node) {
  return [ctx, node](BlockCtx& blk) {
    const Tree& tr = *ctx->tree;
    auto deep = blk.shared_array<std::int32_t>(1);
    auto child_slot = blk.shared_array<std::uint32_t>(1);

    // Block-based mapping over the node's children; thread-based mapping
    // over the block's child's children (the node's grandchildren).
    blk.each_thread([&](LaneCtx& t) {
      const std::uint32_t off = t.ld(&tr.child_offsets[node]);
      const std::uint32_t c =
          t.ld(&tr.children[off + static_cast<std::uint32_t>(blk.block_idx())]);
      if (t.thread_idx() == 0) t.sh_st(&child_slot[0], c);
      const std::uint32_t coff = t.ld(&tr.child_offsets[c]);
      const std::uint32_t cend = t.ld(&tr.child_offsets[c + 1]);
      for (std::uint32_t j = coff + static_cast<std::uint32_t>(t.thread_idx());
           j < cend; j += static_cast<std::uint32_t>(t.block_dim())) {
        const std::uint32_t g = t.ld(&tr.children[j]);
        if (charged_is_internal(t, tr, g)) t.sh_st(&deep[0], 1);
      }
    });

    blk.each_thread([&](LaneCtx& t) {
      if (t.thread_idx() != 0) return;
      const std::uint32_t c = t.sh_ld(&child_slot[0]);
      const std::uint32_t nc = tr.num_children(c);
      if (t.sh_ld(&deep[0]) != 0) {
        // Some grandchild is internal: recurse on the child. One nested
        // launch per block — the "fewer, larger grids" property.
        const int slot = blk.block_idx() % ctx->streams == 0 ? -1 : 0;
        launch_or_fallback(t, *ctx, c,
                           rec_grid(ctx->name, static_cast<int>(nc)),
                           make_hier_kernel(ctx, c), slot);
      } else if (nc > 0) {
        // All grandchildren are leaves: the block computed the child's value
        // without recursion (thread-parallel pass above).
        t.st(&ctx->values[c], ctx->ops.two_level(nc));
      }
      ctx->after(t, node, c);
    });
  };
}

// --- Autoropes-style iterative traversal ([4]) -------------------------------

/// Pick the shallowest level with enough subtree roots to fill the device;
/// falls back to the deepest level for small trees.
std::uint32_t choose_split_level(const Tree& tr, int want_threads) {
  const std::uint32_t max_l = tr.max_level();
  for (std::uint32_t l = 1; l <= max_l; ++l) {
    const auto [first, last] = tr.level_range(l);
    if (last - first >= static_cast<std::uint32_t>(want_threads)) return l;
  }
  return max_l;
}

void run_autoropes(Device& dev, const Tree& tr, std::uint32_t* values,
                   const TraversalOps& ops, const std::string& base) {
  const std::uint32_t split =
      choose_split_level(tr, 2 * dev.spec().num_sms * dev.spec().cores_per_sm);
  const auto [first, last] = tr.level_range(split);
  const std::uint32_t roots = last - first;
  // Profiling telemetry: where the rope split landed and how many subtree
  // roots it yielded. Gated at the call site because the track names allocate.
  if (simt::active_profile() != nullptr) {
    dev.prof_counter(base + "/split_level", static_cast<double>(split));
    dev.prof_counter(base + "/subtree_roots", static_cast<double>(roots));
  }

  // Kernel 1: one thread per split-level subtree, each a post-order DFS.
  if (roots > 0 && split > 0) {
    dev.launch_threads(thread_mapped(roots, base + "/subtrees"),
                       [&tr, values, ops, first, roots](LaneCtx& t) {
                         for (std::int64_t r = t.global_idx(); r < roots;
                              r += t.grid_threads()) {
                           post_order(t, tr, ops, values,
                                      first + static_cast<std::uint32_t>(r));
                         }
                       });
  }

  // Kernel 2..: fold the crown above the split level, one (tiny) kernel per
  // level — children at level l+1 are final when level l runs.
  for (std::uint32_t l = split; l-- > 0;) {
    const auto [cf, cl] = tr.level_range(l);
    const std::uint32_t count = cl - cf;
    if (count == 0) continue;
    dev.launch_threads(thread_mapped(count, base + "/crown"), [&tr, values, ops,
                                                               cf, count](
                                                                  LaneCtx& t) {
      for (std::int64_t k = t.global_idx(); k < count;
           k += t.grid_threads()) {
        const std::uint32_t v = cf + static_cast<std::uint32_t>(k);
        const std::uint32_t off = t.ld(&tr.child_offsets[v]);
        const std::uint32_t end = t.ld(&tr.child_offsets[v + 1]);
        std::uint32_t acc = 1;
        for (std::uint32_t e = off; e < end; ++e) {
          const std::uint32_t c = t.ld(&tr.children[e]);
          const std::uint32_t cv = t.ld(&values[c]);
          t.compute(1);
          acc = ops.fold(acc, cv);
        }
        t.st(&values[v], acc);
      }
    });
  }
}

// --- Workload-consolidation recursion (rec-cons) -----------------------------

/// The recursion analogue of the cons-* loop templates: instead of one child
/// grid per internal node (rec-naive) or per block (rec-hier), a single
/// controller thread walks the tree's levels bottom-up and launches ONE
/// aggregated child grid per level, carrying that level's internal nodes as
/// descriptors. The child's lanes are evenly split over the level's
/// concatenated child edges (merge-path style), so each aggregated grid is
/// itself balanced; the launch carries `aggregated_descriptors` so the GMU
/// charges one activation plus cheap per-descriptor services. Bottom-up
/// order means every child value is final when its parent's level runs, so
/// combines need no accumulator staging.
void run_cons(Device& dev, const Tree& tr, std::uint32_t* values,
              const TraversalOps& ops, const std::string& base) {
  LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 1;
  cfg.name = base + "/controller";
  const Tree* tp = &tr;
  dev.launch_threads(cfg, [tp, values, ops, base](LaneCtx& t) {
    const Tree& tr = *tp;
    for (std::uint32_t l = tr.max_level(); l-- > 0;) {
      const auto [first, last] = tr.level_range(l);
      const std::uint32_t width = last - first;
      if (width == 0) continue;
      // Stage the level's descriptor bundle: internal nodes plus exclusive
      // prefix offsets of their child-edge counts (the aggregated child's
      // search structure). The controller's loads/stores here are the real
      // cost of building the aggregation.
      auto items = simt::make_segment_array<std::int64_t>(width);
      auto offsets = simt::make_segment_array<std::int64_t>(
          static_cast<std::size_t>(width) + 1);
      std::int64_t count = 0;
      std::int64_t total = 0;
      for (std::uint32_t v = first; v < last; ++v) {
        const std::uint32_t off = t.ld(&tr.child_offsets[v]);
        const std::uint32_t end = t.ld(&tr.child_offsets[v + 1]);
        if (end == off) continue;
        t.st(&items[static_cast<std::size_t>(count)],
             static_cast<std::int64_t>(v));
        t.st(&offsets[static_cast<std::size_t>(count)], total);
        total += end - off;
        ++count;
      }
      if (count == 0) continue;
      t.st(&offsets[static_cast<std::size_t>(count)], total);

      LaunchConfig cc = thread_mapped(total, base + "/level", kRecBlockSize);
      cc.aggregated_descriptors = static_cast<int>(count);
      auto child = [tp, values, ops, items, offsets, count,
                    total](LaneCtx& c) {
        const Tree& tr = *tp;
        const std::int64_t threads = c.grid_threads();
        const std::int64_t begin = c.global_idx() * total / threads;
        const std::int64_t end = (c.global_idx() + 1) * total / threads;
        if (begin >= end) return;
        // Binary-search the starting descriptor for this lane's chunk.
        std::int64_t lo = 0, hi = count - 1;
        while (lo < hi) {
          const std::int64_t mid = lo + (hi - lo + 1) / 2;
          if (c.ld(&offsets[static_cast<std::size_t>(mid)]) <= begin) {
            lo = mid;
          } else {
            hi = mid - 1;
          }
        }
        std::int64_t e = begin;
        for (std::int64_t k = lo; k < count && e < end; ++k) {
          const auto v = static_cast<std::uint32_t>(
              c.ld(&items[static_cast<std::size_t>(k)]));
          const std::int64_t kbegin =
              c.ld(&offsets[static_cast<std::size_t>(k)]);
          const std::int64_t kend =
              c.ld(&offsets[static_cast<std::size_t>(k + 1)]);
          if (kend <= e) continue;
          const std::uint32_t coff = c.ld(&tr.child_offsets[v]);
          const std::int64_t stop = std::min(end, kend);
          for (; e < stop; ++e) {
            const std::uint32_t ch = c.ld(
                &tr.children[coff + static_cast<std::uint32_t>(e - kbegin)]);
            const std::uint32_t cv = c.ld(&values[ch]);
            ops.combine(c, &values[v], cv);
          }
        }
      };
      if (!t.launch_threads(cc, child)) {
        // Aggregated level launch refused: the controller folds the level
        // serially — slow but correct, and children are already final.
        t.note_degraded();
        for (std::int64_t k = 0; k < count; ++k) {
          const auto v = static_cast<std::uint32_t>(
              t.ld(&items[static_cast<std::size_t>(k)]));
          const std::uint32_t off = t.ld(&tr.child_offsets[v]);
          const std::uint32_t end = t.ld(&tr.child_offsets[v + 1]);
          for (std::uint32_t j = off; j < end; ++j) {
            const std::uint32_t ch = t.ld(&tr.children[j]);
            const std::uint32_t cv = t.ld(&values[ch]);
            ops.combine(t, &values[v], cv);
          }
        }
      }
    }
  });
}

// Executes one traversal into the device's current session.
std::vector<std::uint32_t> traverse(Device& dev, const Tree& tr,
                                    TreeAlgo algo, RecTemplate tmpl,
                                    const RecOptions& opt) {
  tr.validate();
  opt.validate();
  const std::uint32_t n = tr.num_nodes();
  std::vector<std::uint32_t> values(n, 0);
  std::uint32_t* vp = values.data();
  const std::string base =
      std::string(name(algo)) + "/" + std::string(name(tmpl));
  dev.launch_threads(thread_mapped(n, base + "/init"), [vp, n](LaneCtx& t) {
    for (std::int64_t i = t.global_idx(); i < n; i += t.grid_threads()) {
      t.st(&vp[i], 1u);
    }
  });

  const TraversalOps ops{algo};
  switch (tmpl) {
    case RecTemplate::kFlat:
      run_flat(dev, tr, vp, ops, base);
      break;
    case RecTemplate::kRecNaive:
    case RecTemplate::kRecHier: {
      const std::uint32_t nc = tr.num_children(0);
      const bool hier = tmpl == RecTemplate::kRecHier;
      if (hier && nc > static_cast<std::uint32_t>(kMaxGridBlocks)) {
        throw std::invalid_argument("root outdegree exceeds max grid size");
      }
      if (nc == 0) break;
      const auto ctx = std::make_shared<const RecCtx>(
          RecCtx{{tr.child_offsets.data(), tr.children.data(),
                  opt.streams_per_block, base + "/" + std::string(name(tmpl))},
                 &tr, vp, ops});
      if (hier) {
        dev.launch(rec_grid(ctx->name, static_cast<int>(nc)),
                   make_hier_kernel(ctx, 0));
      } else {
        dev.launch(rec_grid(ctx->name), make_rec_naive_kernel(ctx, 0));
      }
      break;
    }
    case RecTemplate::kAutoropes:
      run_autoropes(dev, tr, vp, ops, base);
      break;
    case RecTemplate::kRecCons:
      run_cons(dev, tr, vp, ops, base);
      break;
  }
  return values;
}

}  // namespace

TreeRunResult run_tree_traversal(Device& dev, const Tree& tr,
                                 const TreeRun& run) {
  std::optional<simt::Session> session;
  if (run.policy.has_value()) session.emplace(dev.session(*run.policy));
  TreeRunResult res{traverse(dev, tr, run.algo, run.tmpl, run.opt), {}};
  if (session.has_value()) res.report = session->report();
  return res;
}

std::vector<std::uint32_t> tree_traversal_serial_recursive(
    const Tree& tr, TreeAlgo algo, simt::CpuTimer* timer) {
  tr.validate();
  const std::uint32_t n = tr.num_nodes();
  std::vector<std::uint32_t> values(n, 1);
  const TraversalOps ops{algo};

  // Figure 3(a): plain post-order recursion.
  auto rec = [&](auto&& self, std::uint32_t v) -> std::uint32_t {
    if (timer != nullptr) timer->call();
    std::uint32_t val = 1;
    const std::uint32_t off = tr.child_offsets[v];
    const std::uint32_t end = tr.child_offsets[v + 1];
    for (std::uint32_t j = off; j < end; ++j) {
      const std::uint32_t c =
          timer != nullptr ? timer->ld(&tr.children[j]) : tr.children[j];
      const std::uint32_t cv = self(self, c);
      if (timer != nullptr) timer->compute(1);
      val = ops.fold(val, cv);
    }
    if (timer != nullptr) {
      timer->st(&values[v], val);
    } else {
      values[v] = val;
    }
    return val;
  };
  rec(rec, 0);
  return values;
}

std::vector<std::uint32_t> tree_traversal_serial_iterative(
    const Tree& tr, TreeAlgo algo, simt::CpuTimer* timer) {
  tr.validate();
  const std::uint32_t n = tr.num_nodes();
  std::vector<std::uint32_t> values(n, 1);
  const TraversalOps ops{algo};

  // Figure 3(b): recursion eliminated. Nodes are stored in BFS order, so a
  // reverse sweep sees every child before its parent.
  for (std::uint32_t v = n - 1; v >= 1; --v) {
    const std::uint32_t p =
        timer != nullptr ? timer->ld(&tr.parent[v]) : tr.parent[v];
    const std::uint32_t vv =
        timer != nullptr ? timer->ld(&values[v]) : values[v];
    const std::uint32_t pv =
        timer != nullptr ? timer->ld(&values[p]) : values[p];
    const std::uint32_t nv = ops.fold(pv, vv);
    if (timer != nullptr) {
      timer->compute(1);
      timer->st(&values[p], nv);
    } else {
      values[p] = nv;
    }
  }
  return values;
}

}  // namespace nestpar::rec
