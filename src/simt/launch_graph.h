#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/simt/metrics.h"
#include "src/simt/trace_context.h"

namespace nestpar::simt {

/// Launch DAG of one recorded session: the durable output of the functional
/// pass and the sole input of the timing pass (scheduler.cpp).
///
/// Ownership/lifetime: everything in this graph is owned *by value* — node
/// names, block costs, child-launch lists. The functional pass records into
/// transient, recycled storage (the SoA warp trace and per-block scratch
/// arenas of ctx.h/arena.h), and each block's trace is reduced warp-by-warp
/// into a BlockCost before that storage is reused; nothing here points back
/// into an arena. A LaunchGraph therefore stays valid for as long as the
/// Recorder that built it (Device::graph() borrows it per session) and is
/// freely copyable. See docs/SIMULATOR.md for the full pipeline.

/// A device-side launch performed by some lane of a block: which kernel node
/// it created and where within the block's execution it was issued (as a
/// fraction of the block's total issue work, used by the timing pass to place
/// the child's ready time).
struct ChildLaunch {
  std::uint32_t child_kernel = 0;
  double issue_fraction = 0.0;
};

/// Cost summary of one executed block, produced by the functional pass and
/// consumed by the timing pass. Warp traces are reduced warp-by-warp into
/// this summary and the backing trace storage recycled; `children` preserves
/// the lane-ascending, step-ordered issue order the scheduler's event
/// timeline depends on.
struct BlockCost {
  double issue_cycles = 0.0;  ///< Sum of warp step costs across the block.
  std::uint32_t warps = 0;
  std::vector<ChildLaunch> children;
};

/// How a kernel was launched; decides launch latency and stream semantics.
enum class LaunchOrigin : std::uint8_t { kHost, kDevice };

/// One launched grid in the session's launch DAG.
struct KernelNode {
  std::uint32_t id = 0;
  std::string name;
  LaunchOrigin origin = LaunchOrigin::kHost;
  int grid_blocks = 0;
  int block_threads = 0;
  std::size_t smem_bytes = 0;
  int regs_per_thread = 24;
  /// Deferred work descriptors carried by a consolidated launch (see
  /// LaunchConfig::aggregated_descriptors); the GMU charges per-descriptor
  /// service on top of the base launch cost when > 1.
  int aggregated_descriptors = 0;
  /// Stream identity: host launches use the user stream id; device launches
  /// default to a per-(parent grid, parent block) stream, or to explicit
  /// per-block extra streams. Encoded as a dense id by the recorder.
  std::uint32_t stream = 0;
  /// Global launch sequence number; defines intra-stream FIFO order.
  std::uint64_t seq = 0;
  /// Parent kernel node (device launches only), and the parent block index.
  std::int64_t parent_kernel = -1;
  std::int32_t parent_block = -1;
  /// Nesting depth (0 for host launches); bounded by the CDP depth limit.
  std::uint32_t nest_depth = 0;
  /// Cross-stream dependencies (cudaStreamWaitEvent): this grid cannot start
  /// until each listed kernel node has completed.
  std::vector<std::uint32_t> depends_on;
  std::vector<BlockCost> blocks;
  /// Count of atomic ops hitting this kernel's hottest atomic address;
  /// models device-wide atomic serialization (hotspot drain).
  std::uint64_t hottest_atomic_ops = 0;
  /// Serving-layer provenance: which dispatch batch caused this grid
  /// (kNoBatchId outside the serving layer) and the member queries that
  /// contributed work. Device launches inherit their parent's context.
  /// Pure metadata — the timing pass never reads it.
  std::uint64_t batch_id = kNoBatchId;
  std::vector<TraceMember> requesters;
  /// Functional-pass metrics for this grid (timing pass adds occupancy).
  Metrics metrics;
};

/// The whole recorded session: every grid launched (host or device), in
/// creation order. Node ids index into `nodes`. A deque, so a node never
/// moves once appended: the recorder fills a running grid's node in place
/// while that grid's lanes append more, and a launch storm never holds two
/// copies of the node array at once.
struct LaunchGraph {
  std::deque<KernelNode> nodes;
  std::uint32_t num_streams = 1;  ///< Dense stream ids are < num_streams.
};

}  // namespace nestpar::simt
