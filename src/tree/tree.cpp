#include "src/tree/tree.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

namespace nestpar::tree {

std::pair<std::uint32_t, std::uint32_t> Tree::level_range(
    std::uint32_t l) const {
  if (static_cast<std::size_t>(l) + 1 >= level_offsets.size()) {
    return {num_nodes(), num_nodes()};
  }
  return {level_offsets[l], level_offsets[l + 1]};
}

void Tree::validate() const {
  const std::uint32_t n = num_nodes();
  if (n == 0) throw std::invalid_argument("tree: empty");
  if (parent.size() != n) {
    throw std::invalid_argument("tree: array size mismatch");
  }
  if (child_offsets.front() != 0 || child_offsets.back() != children.size()) {
    throw std::invalid_argument("tree: bad child offsets");
  }
  if (level_offsets.size() < 2 || level_offsets.front() != 0 ||
      level_offsets[1] != 1 || level_offsets.back() != n ||
      std::adjacent_find(level_offsets.begin(), level_offsets.end(),
                         std::greater_equal<>()) != level_offsets.end()) {
    throw std::invalid_argument("tree: bad level offsets");
  }
  if (parent[0] != kNoParent) {
    throw std::invalid_argument("tree: node 0 must be the root");
  }
  for (std::uint32_t l = 0; l <= max_level(); ++l) {
    const auto [first, last] = level_range(l);
    const auto [next_first, next_last] = level_range(l + 1);
    for (std::uint32_t v = first; v < last; ++v) {
      if (child_offsets[v + 1] < child_offsets[v]) {
        throw std::invalid_argument("tree: offsets not monotone");
      }
      for (std::uint32_t c : child_list(v)) {
        if (c >= n) throw std::invalid_argument("tree: child out of range");
        if (parent[c] != v) {
          throw std::invalid_argument("tree: parent/child mismatch at " +
                                      std::to_string(c));
        }
        if (c < next_first || c >= next_last) {
          throw std::invalid_argument("tree: level mismatch at " +
                                      std::to_string(c));
        }
      }
    }
  }
}

Tree generate_tree(const TreeParams& params, std::uint64_t seed) {
  if (params.depth < 0 || params.outdegree < 1 || params.sparsity < 0) {
    throw std::invalid_argument("generate_tree: bad parameters");
  }
  std::mt19937_64 rng(seed);
  // P(non-leaf has children) = (1/2)^sparsity, tested with `threshold` bits.
  const std::uint64_t threshold =
      params.sparsity >= 63
          ? 0
          : (std::uint64_t{1} << (63 - params.sparsity)) * 2;  // 2^64/2^s

  Tree t;
  if (params.sparsity == 0) {
    // A full tree's size is known up front. Reserving it exactly spares the
    // doubling growth, which for a multi-million-node tree costs more than
    // the BFS below and sets the peak memory of whatever builds one.
    constexpr std::uint64_t kMaxIds = std::numeric_limits<std::uint32_t>::max();
    std::uint64_t nodes = 0, width = 1;
    for (int l = 0; l <= params.depth && nodes <= kMaxIds; ++l) {
      nodes += width;
      width *= static_cast<std::uint64_t>(params.outdegree);
    }
    if (nodes <= kMaxIds) {
      t.child_offsets.reserve(nodes + 1);
      t.children.reserve(nodes - 1);
      t.parent.reserve(nodes);
    }
  }
  t.child_offsets.push_back(0);
  t.parent.push_back(Tree::kNoParent);
  t.level_offsets = {0, 1};

  // BFS frontier construction; node ids are assigned in BFS order. When the
  // scan reaches the first node of a level, that whole level has been
  // placed, so it ends at the current node count.
  std::uint32_t next_unprocessed = 0;
  std::uint32_t lvl = 0;
  while (next_unprocessed < t.parent.size()) {
    const std::uint32_t v = next_unprocessed++;
    if (v == t.level_offsets.back()) {
      ++lvl;
      t.level_offsets.push_back(static_cast<std::uint32_t>(t.parent.size()));
    }
    bool expand = lvl < static_cast<std::uint32_t>(params.depth);
    if (expand && v != 0 && params.sparsity > 0) {
      expand = threshold == 0 ? false : (rng() < threshold);
    }
    if (expand) {
      for (int c = 0; c < params.outdegree; ++c) {
        const auto id = static_cast<std::uint32_t>(t.parent.size());
        t.children.push_back(id);
        t.parent.push_back(v);
      }
    }
    t.child_offsets.push_back(static_cast<std::uint32_t>(t.children.size()));
  }
  return t;
}

}  // namespace nestpar::tree
