#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/simt/cpu_model.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"
#include "src/tree/tree.h"

namespace nestpar::rec {

/// The paper's three parallelization templates for recursive computations
/// (Figure 3): flat (recursion-eliminated, thread-mapped), naive recursion
/// (thread-based: every thread may spawn a single-block child kernel), and
/// hierarchical recursion (block-based over children, thread-based over
/// grandchildren; one nested launch per block).
enum class RecTemplate {
  kFlat,
  kRecNaive,
  kRecHier,
  /// Autoropes-style iterative traversal (Goldfarb et al. [4], the
  /// transformation the paper names for extracting iterative tree code):
  /// one thread per subtree at a split level runs an explicit-stack DFS
  /// (no atomics at all); the small crown above the split level is folded
  /// level by level afterwards.
  kAutoropes,
  /// Workload-consolidation analogue for recursion: a controller thread
  /// walks the tree's levels bottom-up and launches ONE aggregated child
  /// grid per level carrying every internal node of that level as a work
  /// descriptor (lanes evenly split over the level's concatenated child
  /// edges) — device launches scale with tree depth, not node count.
  kRecCons,
};

/// All five, in presentation order.
inline constexpr RecTemplate kAllRecTemplates[] = {
    RecTemplate::kFlat,
    RecTemplate::kRecNaive,
    RecTemplate::kRecHier,
    RecTemplate::kAutoropes,
    RecTemplate::kRecCons,
};

/// Canonical template name ("flat", "rec-naive", ...). Points at a string
/// literal and never dangles.
std::string_view name(RecTemplate t);

/// The two tree traversal algorithms evaluated in §III.C. Both produce one
/// uint32 per node, initialized to 1:
///  - kDescendants: value[v] = size of the subtree rooted at v (self included).
///  - kHeights:     value[v] = 1 for leaves, 1 + max(children) otherwise.
enum class TreeAlgo {
  kDescendants,
  kHeights,
};

inline constexpr TreeAlgo kAllTreeAlgos[] = {
    TreeAlgo::kDescendants,
    TreeAlgo::kHeights,
};

/// Canonical algorithm name ("descendants" / "heights").
std::string_view name(TreeAlgo a);

/// The one tuning knob of the recursive templates, for trees and recursive
/// BFS alike (block and grid sizes are fixed; see src/rec/recursion.h).
struct RecOptions {
  /// Streams used for nested launches from one block: 1 = default child
  /// stream only; 2 adds one extra stream per block (the paper's "stream"
  /// variants; more than 2 only added overhead in the paper).
  int streams_per_block = 1;

  /// Throws std::invalid_argument if streams_per_block < 1. Called by
  /// run_tree_traversal and bfs_recursive_gpu before launching anything.
  void validate() const;
};

/// Everything one traversal needs: the algorithm, the template, its tuning
/// knobs, and — optionally — an ExecPolicy. Mirrors nested::LoopRun: with a
/// policy set, run_tree_traversal opens a fresh session under it and the
/// returned report covers exactly that traversal; without one, launches land
/// in the Session the caller opened on `dev` (and timed with its report())
/// and the returned report is empty.
struct TreeRun {
  TreeAlgo algo = TreeAlgo::kDescendants;
  RecTemplate tmpl = RecTemplate::kFlat;
  RecOptions opt{};
  std::optional<simt::ExecPolicy> policy{};
};

/// Result of a run: per-node values, plus the timing report when
/// `TreeRun::policy` was set (empty otherwise).
struct TreeRunResult {
  std::vector<std::uint32_t> values;
  simt::RunReport report;
};

/// The single entry point: execute the traversal once on `dev` as described
/// by `run`.
TreeRunResult run_tree_traversal(simt::Device& dev, const tree::Tree& t,
                                 const TreeRun& run);

/// Serial CPU references (charging `timer` if given). The recursive form is
/// the paper's Figure 3(a); the iterative form is the recursion-eliminated
/// Figure 3(b) (a reverse-BFS sweep over the node array).
std::vector<std::uint32_t> tree_traversal_serial_recursive(
    const tree::Tree& t, TreeAlgo algo, simt::CpuTimer* timer = nullptr);
std::vector<std::uint32_t> tree_traversal_serial_iterative(
    const tree::Tree& t, TreeAlgo algo, simt::CpuTimer* timer = nullptr);

}  // namespace nestpar::rec
