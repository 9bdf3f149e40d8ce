#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/simt/device.h"

namespace nestpar::rec {

/// Launch shapes shared by every recursive template: thread-mapped kernels
/// run kFlatBlockSize-thread blocks, nested and recursive kernels
/// kRecBlockSize-thread blocks, and no grid exceeds kMaxGridBlocks.
inline constexpr int kFlatBlockSize = 192;
inline constexpr int kRecBlockSize = 64;
inline constexpr int kMaxGridBlocks = 65535;

/// A thread-mapped grid over `n` items: `block`-thread blocks, lanes striding
/// by the grid once kMaxGridBlocks caps it.
inline simt::LaunchConfig thread_mapped(std::int64_t n, std::string name,
                                        int block = kFlatBlockSize) {
  simt::LaunchConfig cfg;
  cfg.block_threads = block;
  cfg.grid_blocks = simt::Device::blocks_for(n, block, kMaxGridBlocks);
  cfg.name = std::move(name);
  return cfg;
}

/// A recursive grid: `blocks` blocks of kRecBlockSize threads.
inline simt::LaunchConfig rec_grid(std::string name, int blocks = 1) {
  simt::LaunchConfig cfg;
  cfg.grid_blocks = blocks;
  cfg.block_threads = kRecBlockSize;
  cfg.name = std::move(name);
  return cfg;
}

/// Stream of a nested launch made for adjacency entry `j`: the block's
/// default child stream (-1) or one of its `streams - 1` extra streams.
inline int stream_slot(std::uint32_t j, int streams) {
  return static_cast<int>(j % static_cast<std::uint32_t>(streams)) - 1;
}

/// What a recursion over a CSR-shaped adjacency shares between templates:
/// the adjacency, the streams per block and the name of its recursive grids.
struct RecShape {
  const std::uint32_t* offsets;
  const std::uint32_t* targets;
  int streams;
  std::string name;
};

/// Nested launch of a recursive child for `target`: fire-and-forget when
/// `W::kAsync`, otherwise synchronous with retries. A refused child is noted
/// as degraded and the workload's fallback runs in this lane instead.
template <class W>
void launch_or_fallback(simt::LaneCtx& t, const W& w, std::uint32_t target,
                        const simt::LaunchConfig& cc, simt::Kernel k,
                        int slot) {
  const simt::LaunchResult r = W::kAsync
                                   ? t.launch_async(cc, std::move(k), slot)
                                   : t.launch(cc, std::move(k), slot);
  if (!r) {
    t.note_degraded();
    w.fallback(t, target);
  }
}

/// One lane's share of a thread-level recursion step on `node`: the lane
/// walks the node's targets with a stride of the block size and launches
/// `spawn(target)` (a config and kernel) on `stream_slot(j, streams)` for
/// every target the workload expands.
///
/// `W` derives from RecShape and supplies, statically:
///  - `kAsync` (see launch_or_fallback);
///  - `enter(t, node)`: per-lane entry state, or nullopt to do nothing;
///  - `expand(t, state, target)`: whether to recurse on `target`;
///  - `fallback(t, target)`: the launch-free path for a refused child;
///  - `after(t, node, target)`: runs after each target.
template <class W, class Spawn>
void expand_lane(simt::LaneCtx& t, const W& w, std::uint32_t node,
                 Spawn&& spawn) {
  const std::optional<std::uint32_t> state = w.enter(t, node);
  if (!state) return;
  const std::uint32_t off = t.ld(&w.offsets[node]);
  const std::uint32_t end = t.ld(&w.offsets[node + 1]);
  for (std::uint32_t j = off + static_cast<std::uint32_t>(t.thread_idx());
       j < end; j += static_cast<std::uint32_t>(t.block_dim())) {
    const std::uint32_t c = t.ld(&w.targets[j]);
    if (w.expand(t, *state, c)) {
      auto [cc, k] = spawn(c);
      launch_or_fallback(t, w, c, cc, std::move(k), stream_slot(j, w.streams));
    }
    w.after(t, node, c);
  }
}

/// Naive recursion (paper Fig. 3(d)), for trees and recursive BFS alike: a
/// single-block kernel per expanded node, each lane expanding its targets
/// into single-block children of the same kernel.
template <class W>
simt::Kernel make_rec_naive_kernel(std::shared_ptr<const W> w,
                                   std::uint32_t node) {
  return [w, node](simt::BlockCtx& blk) {
    blk.each_thread([&](simt::LaneCtx& t) {
      expand_lane(t, *w, node, [&w](std::uint32_t c) {
        return std::pair{rec_grid(w->name), make_rec_naive_kernel(w, c)};
      });
    });
  };
}

}  // namespace nestpar::rec
