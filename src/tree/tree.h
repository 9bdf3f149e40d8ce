#pragma once

#include <cstdint>
#include <utility>
#include <span>
#include <vector>

namespace nestpar::tree {

/// Rooted tree in children-CSR layout (node 0 is the root). Nodes are
/// numbered in BFS order, so each level is one contiguous id range.
struct Tree {
  std::vector<std::uint32_t> child_offsets;  ///< Size num_nodes()+1.
  std::vector<std::uint32_t> children;       ///< Concatenated child lists.
  std::vector<std::uint32_t> parent;         ///< parent[0] == kNoParent.
  /// Level l is ids [level_offsets[l], level_offsets[l+1]); only non-empty
  /// levels are stored, so the size is max_level() + 2. The root alone is
  /// level 0.
  std::vector<std::uint32_t> level_offsets;

  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  std::uint32_t num_nodes() const {
    return child_offsets.empty()
               ? 0
               : static_cast<std::uint32_t>(child_offsets.size() - 1);
  }
  std::uint32_t num_children(std::uint32_t v) const {
    return child_offsets[v + 1] - child_offsets[v];
  }
  std::span<const std::uint32_t> child_list(std::uint32_t v) const {
    return {children.data() + child_offsets[v], num_children(v)};
  }
  std::uint32_t max_level() const {
    return level_offsets.size() < 2
               ? 0
               : static_cast<std::uint32_t>(level_offsets.size() - 2);
  }

  /// [first, last) of level `l` (empty range if the level is absent).
  std::pair<std::uint32_t, std::uint32_t> level_range(std::uint32_t l) const;

  /// Structural invariants: consistent offsets, parent/child agreement,
  /// each child one level below its parent. Throws std::invalid_argument.
  void validate() const;
};

/// Parameters of the paper's synthetic tree generator (§III.C): all non-leaf
/// nodes have `outdegree` children; a node at depth < `depth` becomes a
/// non-leaf with probability rho = (1/2)^sparsity. sparsity=0 gives a full
/// regular tree; larger sparsity gives increasingly irregular trees.
struct TreeParams {
  int depth = 4;        ///< Levels below the root.
  int outdegree = 32;   ///< Children per non-leaf node.
  int sparsity = 0;     ///< rho = (1/2)^sparsity.
};

/// Generate a tree per `params`, deterministic in `seed`. The root always
/// has children (so the tree is never a single node unless depth == 0).
Tree generate_tree(const TreeParams& params, std::uint64_t seed);

}  // namespace nestpar::tree
