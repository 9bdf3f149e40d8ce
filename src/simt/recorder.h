#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/simt/arena.h"
#include "src/simt/ctx.h"
#include "src/simt/device_spec.h"
#include "src/simt/fault.h"
#include "src/simt/kernel.h"
#include "src/simt/launch_graph.h"

namespace nestpar::simt {

class ThreadPool;

namespace detail {
struct BlockRecord;
class EngineEnv;
}  // namespace detail

/// Functional pass: executes kernels eagerly (depth-first for nested
/// launches) on host memory, reducing per-lane traces into per-block costs,
/// per-kernel metrics, and a launch DAG for the timing pass.
///
/// Engine structure: the blocks of a grid run one after another on the
/// launching thread. A device launch appends its KernelNode to the launch
/// graph, with its final id, the moment a lane makes it; a synchronous
/// child then runs inline and records its blocks and metrics into that node
/// in place. Each host-recorded block's own cost and metrics go into a
/// recycled detail::BlockRecord, merged in block order, and the merge gives
/// the grids the block created their launch seq and dense stream id. All
/// lane code therefore runs on one thread, in (block, lane) order, under
/// every engine, and node ids follow DFS creation order. The only work a
/// ThreadPool takes over is reducing finished warp traces into costs
/// (BlockCtx), whose results are folded back in warp order; cycle counts and
/// functional results are bit-identical across engines by construction.
class Recorder {
 public:
  explicit Recorder(const DeviceSpec& spec, int max_nesting_depth = 24);
  ~Recorder();

  /// Launch a grid from the host into `stream`; runs it to completion
  /// functionally (including any nested launches it performs). On success the
  /// result carries the kernel node id; a host-site injected fault refuses
  /// the launch (nothing recorded beyond the robustness counter) instead.
  LaunchResult launch_host(const LaunchConfig& cfg, const Kernel& k,
                           StreamHandle stream);

  /// cudaEventRecord: capture the current tail of `stream`. The returned
  /// event completes when everything launched into the stream so far has.
  EventHandle record_event(StreamHandle stream);
  /// cudaStreamWaitEvent: the next grids launched into `stream` wait for the
  /// event's captured work before starting (timing only; functional
  /// execution is eager and already ordered).
  void stream_wait(StreamHandle stream, EventHandle event);

  const LaunchGraph& graph() const { return graph_; }
  LaunchGraph& graph() { return graph_; }
  const DeviceSpec& spec() const { return spec_; }
  int max_nesting_depth() const { return max_depth_; }

  /// Install/replace the transient-fault injector (survives reset()).
  void set_fault_config(const FaultConfig& cfg) {
    injector_ = FaultInjector(cfg);
  }
  const FaultInjector& fault_injector() const { return injector_; }
  /// Host-side robustness counters (host-launch faults live outside any
  /// grid's metrics); merged into RunReport::robustness by Device::report().
  const RobustnessCounters& host_robustness() const {
    return host_robustness_;
  }

  /// Pool that reduces finished warp traces; nullptr = reduce each warp
  /// inline. Results are identical either way.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Ambient serving-layer context stamped onto every node recorded while it
  /// is active (LaunchConfig::trace overrides it per launch). Cleared by
  /// reset(), so each serve attempt re-installs it on its fresh session.
  /// Pure metadata: modeled cycles and functional results are unaffected.
  void set_trace_context(const TraceContext& ctx) { trace_ctx_ = ctx; }
  void clear_trace_context() { trace_ctx_ = TraceContext{}; }

  void reset();

 private:
  friend class detail::EngineEnv;

  std::uint32_t create_host_node(const LaunchConfig& cfg, std::uint32_t stream);
  /// Execute one recorded grid, block by block, merging the blocks' records
  /// in block order.
  void run_grid(std::uint32_t node_id, const Kernel& k);
  /// Fold block `b`'s record into grid `node_id`, and give the grids the
  /// block created their seq and dense stream id.
  void merge_block(std::uint32_t node_id, std::size_t b,
                   detail::BlockRecord& r);

  std::uint32_t stream_id_for_host(int user_stream);
  std::uint32_t stream_id_for_device(std::uint32_t parent_node,
                                     int parent_block, int slot);
  std::uint32_t intern_stream(std::uint64_t key);

  DeviceSpec spec_;
  int max_depth_;
  ThreadPool* pool_ = nullptr;
  FaultInjector injector_;
  RobustnessCounters host_robustness_;
  std::uint64_t host_attempt_seq_ = 0;
  TraceContext trace_ctx_;
  LaunchGraph graph_;
  /// Fire-and-forget device launches awaiting the post-grid drain, in
  /// creation order.
  std::vector<std::pair<std::uint32_t, Kernel>> deferred_;
  /// Deterministic drain-order randomization (models the hardware's lack of
  /// cross-block launch ordering guarantees).
  std::mt19937_64 drain_rng_{0x9e3779b97f4a7c15ull};
  std::uint64_t seq_ = 0;
  /// Records of the two blocks run_grid keeps in the air, recycled across
  /// blocks and grids.
  std::unique_ptr<detail::BlockRecord[]> records_;
  /// Atomic histogram of the grid being run, recycled across grids.
  AtomicHist grid_hist_;
  FlatIdMap stream_ids_;
  /// Tail (last node id) per dense stream id, for event recording.
  FlatIdMap stream_tail_;
  /// Events: captured kernel node (or kNoNode if the stream was empty).
  std::vector<std::uint32_t> events_;
  /// Waits registered per stream, attached to the stream's next launch.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> pending_waits_;
};

}  // namespace nestpar::simt
