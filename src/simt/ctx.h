#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "src/simt/arena.h"
#include "src/simt/device_spec.h"
#include "src/simt/fault.h"
#include "src/simt/kernel.h"
#include "src/simt/launch_graph.h"
#include "src/simt/metrics.h"
#include "src/simt/op.h"

namespace nestpar::simt {

class BlockCtx;
class LaneCtx;
class ThreadPool;

/// Per-grid histogram of atomic operations (atomic-segment granularity);
/// feeds the hotspot serialization term of the timing model. Backed by the
/// open-addressing FlatHist (arena.h): only order-independent reductions
/// (per-key sum, global max) are ever taken from it.
using AtomicHist = FlatHist;

/// Internal: a child launch noted during warp reduction, with the issue
/// offset in block cycles (converted to a fraction when the block ends).
/// Records are appended in lane-ascending order within a warp step and in
/// step order within a block — the order the scheduler's event timeline and
/// every checked-in baseline depend on.
struct ChildLaunchRecord {
  std::uint32_t child_kernel;
  double offset_cycles;
};

namespace detail {

/// Outcome of one device-side launch attempt: the child's launch-graph node
/// id when it succeeded, or the refusal reason (resource limit or injected
/// fault).
struct LaunchOutcome {
  std::uint32_t id = kInvalidLaunchNode;
  SimtError error = SimtError::kOk;
};

/// Reusable per-block recording storage: a small ring of warp traces (each
/// with its reduced result), the bump arena backing shared-memory arrays, and
/// the block's pending child-launch records. Defined in recorder.cpp, its
/// only user.
///
/// Ownership/lifetime: scratches are owned by a per-host-thread stack and
/// leased to the engine level by level (recorder.cpp): a grid's blocks
/// record into the lease of the grid's level, and a nested grid launched
/// mid-phase leases the next level, so the parent's live traces and shared
/// arrays are never disturbed. Recycling is invisible to the cost model
/// because every slot the model can see is kModelAlignment-aligned
/// (host_alloc.h).
struct BlockScratch;
/// One ring slot of a BlockScratch: a warp trace and its reduced result.
struct WarpSlot;

/// Execution backend a running block records into. The engine (recorder.cpp)
/// provides one per block; it routes the block's launches, metrics and
/// atomic histogram to the grid being recorded.
class BlockEnv {
 public:
  virtual ~BlockEnv() = default;
  virtual const DeviceSpec& spec() const = 0;
  /// Record a device-side launch from `parent_block` of this env's grid and
  /// (unless `deferred`) execute it to completion. On success the outcome's
  /// `id` is the child's final launch-graph node id, appended at this call;
  /// a refused launch carries the SimtError instead and records nothing but
  /// the robustness counters. `k` is moved from only
  /// when a deferred launch succeeds, so a refused one can be retried.
  virtual LaunchOutcome launch_child(const LaunchConfig& cfg, Kernel& k,
                                     int parent_block, int extra_stream_slot,
                                     bool deferred) = 0;
  /// Atomic histogram of the grid this env's block belongs to.
  virtual AtomicHist& hist() = 0;
  /// Metrics sink of the grid this env's block belongs to.
  virtual Metrics& metrics() = 0;
  /// Fault-injector configuration (retry/backoff parameters); a default
  /// FaultConfig when no injector is active.
  virtual const FaultConfig& fault_config() const = 0;
  /// Pool that reduces this block's finished warp traces; nullptr reduces
  /// each warp inline as it finishes (the serial engine).
  virtual ThreadPool* pool() const = 0;
};

}  // namespace detail

/// Non-owning reference to a per-lane phase body, `void(LaneCtx&)`.
/// BlockCtx::each_thread takes this instead of a std::function so that the
/// (very hot) per-phase call carries no heap allocation and no virtual-ish
/// dispatch setup: call sites keep passing lambdas unchanged, and the
/// referenced callable only needs to outlive the each_thread call itself.
class ThreadBodyRef {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ThreadBodyRef> &&
                std::is_invocable_v<F&, LaneCtx&>>>
  ThreadBodyRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* o, LaneCtx& t) {
          (*static_cast<std::remove_reference_t<F>*>(o))(t);
        }) {}

  void operator()(LaneCtx& t) const { call_(obj_, t); }

 private:
  void* obj_;
  void (*call_)(void*, LaneCtx&);
};

/// Per-lane execution context handed to kernel bodies by the functional pass.
///
/// Every method both *performs* the operation on host memory (so results are
/// real and testable) and *records* a lane op that the warp reducer folds
/// into cost and nvprof-like metrics. Addresses are real host addresses;
/// coalescing is computed from their relative layout, which matches the data
/// layout a CUDA kernel would see.
///
/// Recorded ops land in the warp's shared structure-of-arrays trace
/// (WarpTrace): lanes of a warp execute sequentially, so each lane's ops are
/// a contiguous column range delimited by lane offsets — no per-lane
/// containers, no per-op allocation. The trace is only alive until the warp
/// is reduced; nothing may retain it.
///
/// Lane code runs on the recording thread under both engines, one lane after
/// another, so every memory access below is a plain load or store and the
/// winner of a contended atomic is a function of (block, lane) order alone.
class LaneCtx {
 public:
  int thread_idx() const { return thread_idx_; }
  int block_idx() const { return block_idx_; }
  int block_dim() const { return block_dim_; }
  int grid_dim() const { return grid_dim_; }
  int global_idx() const { return block_idx_ * block_dim_ + thread_idx_; }
  int lane() const { return thread_idx_ % 32; }
  int warp() const { return thread_idx_ / 32; }
  /// Total threads in the grid (for grid-stride loops).
  int grid_threads() const { return grid_dim_ * block_dim_; }

  /// `n` arithmetic instructions.
  void compute(std::uint32_t n = 1) {
    trace_->push_count(OpKind::kCompute, n);
  }

  /// Global-memory load: returns `*p` and records the access.
  template <class T>
  T ld(const T* p) {
    trace_->push_mem(OpKind::kGlobalLoad, sizeof(T),
                     reinterpret_cast<std::uint64_t>(p));
    return *p;
  }
  template <class T>
    requires(!std::is_pointer_v<T>)
  T ld(const T& r) {
    return ld(&r);
  }

  /// Global-memory store.
  template <class T>
  void st(T* p, T v) {
    trace_->push_mem(OpKind::kGlobalStore, sizeof(T),
                     reinterpret_cast<std::uint64_t>(p));
    *p = v;
  }

  /// Raw charge of a global load/store covering `bytes` at `p`, without
  /// touching memory — for aggregate accounting of long scans whose
  /// per-element trace would be wastefully large.
  void charge_load(const void* p, std::uint32_t bytes) {
    trace_->push_mem(OpKind::kGlobalLoad, bytes,
                     reinterpret_cast<std::uint64_t>(p));
  }

  /// Shared-memory load (use with spans from BlockCtx::shared_array).
  template <class T>
  T sh_ld(const T* p) {
    trace_->push_addr(OpKind::kSharedLoad,
                      reinterpret_cast<std::uint64_t>(p));
    return *p;
  }
  template <class T>
  void sh_st(T* p, T v) {
    trace_->push_addr(OpKind::kSharedStore,
                      reinterpret_cast<std::uint64_t>(p));
    *p = v;
  }

  /// Atomic read-modify-writes on global memory. Return the old value, as in
  /// CUDA. Lanes executing atomics to the same address serialize in the model.
  template <class T>
  T atomic_add(T* p, T v) {
    record_atomic(p);
    T old = *p;
    *p = static_cast<T>(old + v);
    return old;
  }
  template <class T>
  T atomic_min(T* p, T v) {
    record_atomic(p);
    T old = *p;
    if (v < old) *p = v;
    return old;
  }
  template <class T>
  T atomic_max(T* p, T v) {
    record_atomic(p);
    T old = *p;
    if (old < v) *p = v;
    return old;
  }
  template <class T>
  T atomic_cas(T* p, T expected, T val) {
    record_atomic(p);
    T old = *p;
    if (old == expected) *p = val;
    return old;
  }

  /// Shared-memory atomic (cheap; does not hit the global atomic units).
  template <class T>
  T sh_atomic_add(T* p, T v) {
    trace_->push_addr(OpKind::kSharedStore,
                      reinterpret_cast<std::uint64_t>(p));
    T old = *p;
    *p = static_cast<T>(old + v);
    return old;
  }

  /// Device-side (nested) kernel launches. Each returns the outcome (a
  /// [[nodiscard]] LaunchResult) instead of throwing, as CUDA reports a
  /// refused launch with an error code: a refusal (ResourceLimits
  /// exhaustion or an injected fault) still charges the launch-issue cycles
  /// and bumps the robustness counters, but creates no child grid, and the
  /// caller degrades. `slot` -1 is this block's
  /// default child stream; `slot >= 0` one of its extra streams (the paper's
  /// multi-stream recursive variants). Launches from the same block
  /// serialize; launches from different blocks may run concurrently — CUDA
  /// dynamic-parallelism semantics.
  ///
  /// Synchronizing launch: the child grid executes before the call returns,
  /// so the parent sees its writes — CUDA's launch followed by device-side
  /// synchronization on the child. Transient faults are retried up to
  /// FaultConfig::max_retries times, each retry preceded by an exponentially
  /// growing stall (modeled in cycles); resource refusals are returned at
  /// once, since retrying them cannot succeed.
  LaunchResult launch(const LaunchConfig& cfg, Kernel k, int slot = -1);
  /// launch() of a single-phase per-lane kernel.
  LaunchResult launch_threads(const LaunchConfig& cfg, ThreadKernel k,
                              int slot = -1);
  /// Fire-and-forget launch, one attempt and no retry: the child is queued
  /// and executes after the current host-launched grid completes
  /// (breadth-first drain), so the parent never observes its writes — plain
  /// CDP launch semantics without parent synchronization. Used by the
  /// recursive BFS templates.
  LaunchResult launch_async(const LaunchConfig& cfg, Kernel k,
                            int slot = -1);

  /// Record `cycles` of idle wait in this lane (retry backoff).
  void stall(std::uint32_t cycles) {
    trace_->push_count(OpKind::kStall, cycles);
  }

  /// Note that this lane fell back to a degraded (launch-free) path after a
  /// refused launch; counted in the grid's RobustnessCounters.
  void note_degraded();

 private:
  friend class BlockCtx;
  LaneCtx(BlockCtx* blk, WarpTrace* trace, int thread_idx);

  /// One launch attempt; `k` is moved from only when `deferred`.
  LaunchResult attempt(const LaunchConfig& cfg, Kernel& k, int slot,
                       bool deferred);

  template <class T>
  void record_atomic(T* p) {
    trace_->push_addr(OpKind::kAtomic,
                      reinterpret_cast<std::uint64_t>(p));
  }

  BlockCtx* blk_;
  WarpTrace* trace_;
  int thread_idx_;
  int block_idx_;
  int block_dim_;
  int grid_dim_;
};

/// Per-block execution context. A kernel body structures its work as one or
/// more `each_thread` phases; consecutive phases are separated by an implicit
/// block-wide barrier, which is how `__syncthreads()`-delimited CUDA code is
/// expressed here (the functional pass runs lanes sequentially, so a phase
/// boundary is the only correct way to order cross-thread communication).
///
/// Recording storage (the warp traces, the shared-memory arena, pending child
/// records) is a BlockScratch the engine lends the block for its lifetime
/// and recycles afterwards; see detail::BlockScratch for the lifetime rules.
///
/// Each finished warp trace is reduced into a cost and metrics that share
/// nothing with other warps — inline, or on the engine's ThreadPool while
/// the next warp records — and folded into the block in warp order, so the
/// block's cost is the same double sequence under every engine.
class BlockCtx {
 public:
  /// Internal: constructed by the execution engine with the backend this
  /// block records into and the scratch it records with, which must outlive
  /// the block. Kernel bodies only ever receive a reference.
  BlockCtx(detail::BlockEnv* env, detail::BlockScratch* scratch, int block_idx,
           int block_dim, int grid_dim);
  ~BlockCtx();

  int block_idx() const { return block_idx_; }
  int block_dim() const { return block_dim_; }
  int grid_dim() const { return grid_dim_; }
  const DeviceSpec& spec() const;

  /// Run one per-lane phase over all threads of the block. The body is
  /// called once per thread, warp by warp in ascending lane order; it only
  /// needs to be valid for the duration of this call (ThreadBodyRef does not
  /// own it).
  void each_thread(ThreadBodyRef fn);

  /// Allocate a zero-initialized shared-memory array for this block. Counts
  /// against the 48KB shared-memory budget (checked). The storage lives in
  /// the block's scratch arena: it is valid until the block finishes, and
  /// must not be retained beyond that (exactly like __shared__ memory).
  template <class T>
  std::span<T> shared_array(std::size_t n) {
    void* p = shared_alloc(n * sizeof(T), alignof(T));
    return std::span<T>(static_cast<T*>(p), n);
  }

  /// Internal: close the block and return its reduced cost (issue cycles,
  /// warp count, child-launch fractions). Called once by the engine after
  /// the kernel body returns; also bumps the grid's block/warp metrics.
  BlockCost finish();

  BlockCtx(const BlockCtx&) = delete;
  BlockCtx& operator=(const BlockCtx&) = delete;

 private:
  friend class LaneCtx;

  void* shared_alloc(std::size_t bytes, std::size_t align);
  /// Hand the warp just recorded to the reducer (inline without a pool) and
  /// move recording to the next ring slot.
  void flush_warp(int lanes);
  /// Wait for the oldest in-flight warp and fold its result into the block.
  void fold_oldest();
  /// Fold one reduced warp into the block: its barrier cycles, its children
  /// at offsets rebased on the block's cost so far, its cost, metrics,
  /// atomic-histogram bumps and fault-cycle increments.
  void fold(detail::WarpSlot& s);

  detail::BlockEnv* env_;
  detail::BlockScratch* scratch_;  ///< Borrowed from the engine.
  ThreadPool* pool_;               ///< BlockEnv::pool(), fetched once.
  int block_idx_;
  int block_dim_;
  int grid_dim_;
  int ring_head_ = 0;  ///< Ring slot the current warp records into.
  int in_flight_ = 0;  ///< Submitted warps not yet folded, oldest first.
  int phase_ = 0;
  std::size_t shared_used_ = 0;
  // Accumulated block cost; reduced into a BlockCost when the block ends.
  double issue_cycles_ = 0.0;
};

}  // namespace nestpar::simt
