#include "src/tree/tree.h"

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

namespace nestpar::tree {

std::uint32_t Tree::max_level() const {
  std::uint32_t m = 0;
  for (std::uint32_t l : level) m = std::max(m, l);
  return m;
}

std::pair<std::uint32_t, std::uint32_t> Tree::level_range(
    std::uint32_t l) const {
  const auto first = std::lower_bound(level.begin(), level.end(), l);
  const auto last = std::upper_bound(level.begin(), level.end(), l);
  return {static_cast<std::uint32_t>(first - level.begin()),
          static_cast<std::uint32_t>(last - level.begin())};
}

void Tree::validate() const {
  const std::uint32_t n = num_nodes();
  if (n == 0) throw std::invalid_argument("tree: empty");
  if (parent.size() != n || level.size() != n) {
    throw std::invalid_argument("tree: array size mismatch");
  }
  if (child_offsets.front() != 0 || child_offsets.back() != children.size()) {
    throw std::invalid_argument("tree: bad child offsets");
  }
  if (parent[0] != kNoParent || level[0] != 0) {
    throw std::invalid_argument("tree: node 0 must be the root");
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (child_offsets[v + 1] < child_offsets[v]) {
      throw std::invalid_argument("tree: offsets not monotone");
    }
    for (std::uint32_t c : child_list(v)) {
      if (c >= n) throw std::invalid_argument("tree: child out of range");
      if (parent[c] != v) {
        throw std::invalid_argument("tree: parent/child mismatch at " +
                                    std::to_string(c));
      }
      if (level[c] != level[v] + 1) {
        throw std::invalid_argument("tree: level mismatch at " +
                                    std::to_string(c));
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
      t.level.reserve(nodes);
    }
  }
  t.child_offsets.push_back(0);
  t.parent.push_back(Tree::kNoParent);
  t.level.push_back(0);

  // BFS frontier construction; node ids are assigned in BFS order.
  std::uint32_t next_unprocessed = 0;
  while (next_unprocessed < t.parent.size()) {
    const std::uint32_t v = next_unprocessed++;
    const std::uint32_t lvl = t.level[v];
    bool expand = lvl < static_cast<std::uint32_t>(params.depth);
    if (expand && v != 0 && params.sparsity > 0) {
      expand = threshold == 0 ? false : (rng() < threshold);
    }
    if (expand) {
      for (int c = 0; c < params.outdegree; ++c) {
        const auto id = static_cast<std::uint32_t>(t.parent.size());
        t.children.push_back(id);
        t.parent.push_back(v);
        t.level.push_back(lvl + 1);
      }
    }
    t.child_offsets.push_back(static_cast<std::uint32_t>(t.children.size()));
  }
  return t;
}

}  // namespace nestpar::tree
