#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/graph/csr.h"
#include "src/rec/tree_traversal.h"
#include "src/simt/cpu_model.h"
#include "src/simt/device.h"

namespace nestpar::apps {

inline constexpr std::uint32_t kBfsUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// Flat GPU BFS: level-synchronous thread-mapped traversal after [5] — the
/// work-efficient code variant with no atomics. Returns per-node levels.
std::vector<std::uint32_t> bfs_flat_gpu(simt::Device& dev,
                                        const graph::Csr& g,
                                        std::uint32_t src,
                                        int block_size = 192);

/// Recursive (unordered [11]) GPU BFS using the paper's naive or hierarchical
/// recursion template: traversing a node recursively traverses neighbors
/// whose level decreased. Not work-efficient; requires atomics. Child grids
/// are fire-and-forget CDP launches. Any `tmpl` other than kRecNaive or
/// kRecHier throws std::invalid_argument, as do an out-of-range `src` and
/// options that fail `RecOptions::validate`.
std::vector<std::uint32_t> bfs_recursive_gpu(
    simt::Device& dev, const graph::Csr& g, std::uint32_t src,
    rec::RecTemplate tmpl, const rec::RecOptions& opt = {});

/// Serial level-synchronous queue BFS (the iterative CPU reference).
std::vector<std::uint32_t> bfs_serial_iterative(const graph::Csr& g,
                                                std::uint32_t src,
                                                simt::CpuTimer* timer = nullptr);

/// Serial recursive unordered BFS: depth-first revisiting (stack
/// serialization makes the traversal depth-first, as the paper notes), with
/// re-traversal whenever a node's level decreases.
std::vector<std::uint32_t> bfs_serial_recursive(const graph::Csr& g,
                                                std::uint32_t src,
                                                simt::CpuTimer* timer = nullptr);

}  // namespace nestpar::apps
