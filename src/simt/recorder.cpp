#include "src/simt/recorder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/simt/thread_pool.h"

namespace nestpar::simt {

// ---------------------------------------------------------------------------
// Kernel helpers
// ---------------------------------------------------------------------------

Kernel as_kernel(ThreadKernel body) {
  return [body = std::move(body)](BlockCtx& blk) {
    blk.each_thread([&](LaneCtx& t) { body(t); });
  };
}

// ---------------------------------------------------------------------------
// Per-block recording
// ---------------------------------------------------------------------------

namespace detail {

constexpr std::uint64_t kUnlimitedBudget = ~std::uint64_t{0};

/// Launch-resource budget of one block of a host-recorded grid. The grid's
/// pool and heap capacity is partitioned evenly across its blocks up front,
/// so exhaustion depends only on the order of launch attempts within the
/// block. Nested sync grids executed inside the block draw from the same
/// budget, modeling the shared device-runtime pool.
struct LaunchBudget {
  std::uint64_t grid_key = 0;  ///< Stable (grid node id, block) hash.
  std::uint64_t seq = 0;       ///< Launch attempts made by this block so far.
  std::uint64_t pool_used = 0;
  std::uint64_t pool_quota = kUnlimitedBudget;
  std::uint64_t heap_used = 0;
  std::uint64_t heap_quota = kUnlimitedBudget;
};

/// What one block of a host-recorded grid records outside the launch graph:
/// its cost and metrics contributions, folded into the grid at merge, and
/// the id range of the grids its lanes launched (nested ones included),
/// which the merge gives their seq and stream id. Recycled for every block.
struct BlockRecord {
  BlockCost cost;
  Metrics metrics;
  /// The block's grids are node ids [first_node, first_node +
  /// stream_slots.size()), in creation (DFS) order.
  std::uint32_t first_node = 0;
  /// Extra-stream slot of each of those grids, indexed by id - first_node.
  std::vector<int> stream_slots;
  /// deferred_ entries before the block ran; a block that throws drops the
  /// rest along with its nodes.
  std::size_t first_deferred = 0;
  LaunchBudget budget;
};

/// One warp's reduced trace, computed from a zero issue base and sharing
/// nothing with other warps, so any thread may compute it. BlockCtx::fold
/// applies it to the block in warp order.
struct WarpResult {
  double cost = 0.0;
  // Integer metric sums (the Metrics fields of the same names).
  std::uint64_t warp_steps = 0, active_lane_ops = 0, compute_ops = 0,
                shared_ops = 0, atomic_ops = 0, device_launches = 0,
                gld_requested_bytes = 0, gld_transferred_bytes = 0,
                gst_requested_bytes = 0, gst_transferred_bytes = 0;
  std::uint64_t active_lane_hist[33] = {};
  /// Child launches, offsets relative to the warp's start.
  std::vector<ChildLaunchRecord> children;
  /// Atomic-segment key of every atomic op: the grid histogram's bumps,
  /// logged when the warp was reduced off the recording thread.
  std::vector<std::uint64_t> atomic_keys;
  /// Metrics::fault_cycles increments, in the order the reduction made them:
  /// a double summed step by step is replayed, not pre-summed.
  std::vector<double> fault_log;
};

/// `hist` non-null: bump it directly instead of logging atomic keys (only
/// the recording thread may, since the histogram is the grid's).
void reduce_warp(const DeviceSpec& spec, const WarpTrace& trace,
                 int active_lanes, AtomicHist* hist, WarpResult& r);

struct WarpSlot final : ThreadPool::Task {
  WarpTrace trace;
  const DeviceSpec* spec = nullptr;
  int lanes = 0;
  /// Barrier cycles the block is charged just before this warp (the
  /// implicit __syncthreads() ahead of a phase's first warp), else 0.
  double sync_before = 0.0;
  WarpResult result;

  void run() override { reduce_warp(*spec, trace, lanes, nullptr, result); }
};

/// Warps a block may have in flight on the pool. Bounds the traces a
/// (thread, level) keeps alive; 16 lets the recording thread run ahead of a
/// worker held up by one long warp (8 measurably stalled it on sim-skewed).
constexpr int kWarpRing = 16;

/// Traces shorter than this many ops are reduced on the recording thread.
constexpr std::uint32_t kPoolMinOps = 512;

struct BlockScratch {
  std::array<WarpSlot, kWarpRing> ring;
  Arena shared;
  std::vector<ChildLaunchRecord> pending_children;
};

namespace {

/// Per-host-thread stack of BlockScratch: every live lease holds one level,
/// and a nested grid launched mid-phase leases the next, so the parent's
/// live traces and shared arrays stay untouched. Scratches are allocated
/// once per (thread, level) and recycled for every later block — steady-
/// state recording performs no heap allocation at all.
struct ScratchStack {
  std::vector<std::unique_ptr<BlockScratch>> levels;
  std::size_t depth = 0;
};

thread_local ScratchStack g_scratch_stack;

}  // namespace

/// Lease of the calling thread's next scratch level (allocated the first
/// time that level is reached). Leases nest strictly LIFO, which scoped
/// objects guarantee.
class ScratchLease {
 public:
  ScratchLease() {
    ScratchStack& st = g_scratch_stack;
    if (st.depth == st.levels.size()) {
      st.levels.push_back(std::make_unique<BlockScratch>());
    }
    scratch_ = st.levels[st.depth++].get();
  }
  ~ScratchLease() { --g_scratch_stack.depth; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  BlockScratch* get() const { return scratch_; }

 private:
  BlockScratch* scratch_;
};

}  // namespace detail

namespace {

void validate_config(const DeviceSpec& spec, const LaunchConfig& cfg) {
  if (cfg.grid_blocks < 1) throw std::invalid_argument("grid_blocks < 1");
  if (cfg.block_threads < 1 ||
      cfg.block_threads > spec.max_threads_per_block) {
    throw std::invalid_argument("block_threads out of range");
  }
  if (cfg.smem_bytes > spec.shared_mem_per_block) {
    throw std::invalid_argument("smem_bytes exceeds device limit");
  }
  if (cfg.aggregated_descriptors < 0) {
    throw std::invalid_argument("aggregated_descriptors < 0");
  }
}

}  // namespace

namespace detail {

/// BlockEnv backing one running block of grid `grid`: the host-recorded
/// grid, whose metrics sink is the BlockRecord's, or a synchronously
/// launched nested grid, which records into its own node. Node references
/// stay valid while lanes append nodes because the graph's deque never
/// moves its elements.
class EngineEnv final : public BlockEnv {
 public:
  EngineEnv(Recorder* recorder, BlockRecord* rec, KernelNode* grid,
            Metrics* sink, AtomicHist* hist)
      : recorder_(recorder),
        rec_(rec),
        grid_(grid),
        sink_(sink),
        hist_(hist) {}

  const DeviceSpec& spec() const override { return recorder_->spec_; }
  AtomicHist& hist() override { return *hist_; }
  ThreadPool* pool() const override { return recorder_->pool_; }
  Metrics& metrics() override { return *sink_; }
  const FaultConfig& fault_config() const override {
    return recorder_->injector_.config();
  }

  LaunchOutcome launch_child(const LaunchConfig& cfg, Kernel& k,
                             int parent_block, int extra_stream_slot,
                             bool deferred) override {
    const DeviceSpec& spec = recorder_->spec_;
    const FaultInjector& injector = recorder_->injector_;
    validate_config(spec, cfg);
    LaunchBudget& budget = rec_->budget;
    RobustnessCounters& rb = metrics().robustness;
    ++rb.launches_attempted;
    // Stable per-attempt key: the block's (grid, block) hash mixed with the
    // attempt ordinal.
    const std::uint64_t attempt_key = fault_mix(budget.grid_key ^ budget.seq++);
    const ResourceLimits& lim = spec.limits;
    const std::uint32_t child_depth = grid_->nest_depth + 1;
    SimtError err = SimtError::kOk;
    if (child_depth > static_cast<std::uint32_t>(recorder_->max_depth_)) {
      err = SimtError::kDepthLimitExceeded;
      ++rb.refused_depth;
    } else if (budget.pool_used >= budget.pool_quota) {
      err = SimtError::kPendingPoolExhausted;
      ++rb.refused_pool;
    } else if (budget.heap_quota != kUnlimitedBudget &&
               budget.heap_used + lim.heap_bytes_per_launch >
                   budget.heap_quota) {
      err = SimtError::kDeviceHeapExhausted;
      ++rb.refused_heap;
    } else if (injector.enabled() &&
               injector.should_fail(FaultSite::kDeviceLaunch, attempt_key)) {
      err = SimtError::kInjectedFault;
      ++rb.faults_injected;
    }
    if (err != SimtError::kOk) {
      return LaunchOutcome{kInvalidLaunchNode, err};
    }
    ++budget.pool_used;
    budget.heap_used += lim.heap_bytes_per_launch;
    std::deque<KernelNode>& nodes = recorder_->graph_.nodes;
    const auto id = static_cast<std::uint32_t>(nodes.size());
    KernelNode& n = nodes.emplace_back();
    n.id = id;
    n.name = cfg.name;
    n.origin = LaunchOrigin::kDevice;
    n.grid_blocks = cfg.grid_blocks;
    n.block_threads = cfg.block_threads;
    n.smem_bytes = cfg.smem_bytes;
    n.regs_per_thread = cfg.regs_per_thread;
    n.aggregated_descriptors = cfg.aggregated_descriptors;
    n.parent_kernel = grid_->id;
    n.parent_block = parent_block;
    n.nest_depth = child_depth;
    // Provenance: an explicit per-launch context wins; otherwise the child
    // inherits its parent grid's stamp, which transitively carries the
    // ambient serve context down through consolidated child grids.
    if (cfg.trace.active()) {
      n.batch_id = cfg.trace.batch_id;
      n.requesters = cfg.trace.members;
    } else {
      n.batch_id = grid_->batch_id;
      n.requesters = grid_->requesters;
    }
    rec_->stream_slots.push_back(extra_stream_slot);
    if (deferred) {
      recorder_->deferred_.emplace_back(id, std::move(k));
    } else {
      run_nested_grid(n, k);
    }
    return LaunchOutcome{id, SimtError::kOk};
  }

 private:
  /// Run a synchronously launched nested grid to completion, blocks in
  /// order, on the current thread; only the timing model makes it look
  /// concurrent.
  void run_nested_grid(KernelNode& n, const Kernel& k) {
    const int nblocks = n.grid_blocks;
    AtomicHist grid_hist;
    n.blocks.resize(static_cast<std::size_t>(nblocks));
    const ScratchLease scratch;
    for (int b = 0; b < nblocks; ++b) {
      EngineEnv env(recorder_, rec_, &n, &n.metrics, &grid_hist);
      BlockCtx blk(&env, scratch.get(), b, n.block_threads, nblocks);
      k(blk);
      n.blocks[static_cast<std::size_t>(b)] = blk.finish();
    }
    n.hottest_atomic_ops = grid_hist.max_count();
  }

  Recorder* recorder_;
  BlockRecord* rec_;
  KernelNode* grid_;
  Metrics* sink_;
  AtomicHist* hist_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// LaneCtx
// ---------------------------------------------------------------------------

LaneCtx::LaneCtx(BlockCtx* blk, WarpTrace* trace, int thread_idx)
    : blk_(blk),
      trace_(trace),
      thread_idx_(thread_idx),
      block_idx_(blk->block_idx_),
      block_dim_(blk->block_dim_),
      grid_dim_(blk->grid_dim_) {}

LaunchResult LaneCtx::attempt(const LaunchConfig& cfg, Kernel& k, int slot,
                              bool deferred) {
  const detail::LaunchOutcome out =
      blk_->env_->launch_child(cfg, k, blk_->block_idx_, slot, deferred);
  if (out.error != SimtError::kOk) {
    trace_->push(OpKind::kLaunchFail, 1, 0, 0);
    return LaunchResult{kInvalidLaunchNode, out.error};
  }
  trace_->push_addr(OpKind::kLaunch, out.id);
  return LaunchResult{out.id, SimtError::kOk};
}

LaunchResult LaneCtx::launch(const LaunchConfig& cfg, Kernel k, int slot) {
  LaunchResult r = attempt(cfg, k, slot, /*deferred=*/false);
  const FaultConfig& fc = blk_->env_->fault_config();
  double backoff = fc.backoff_base_cycles;
  for (int retry = 0;
       retry < fc.max_retries && !r.ok() && is_transient(r.error); ++retry) {
    stall(static_cast<std::uint32_t>(backoff));
    blk_->env_->metrics().robustness.retries += 1;
    backoff *= 2.0;
    r = attempt(cfg, k, slot, /*deferred=*/false);
  }
  return r;
}

LaunchResult LaneCtx::launch_threads(const LaunchConfig& cfg, ThreadKernel k,
                                     int slot) {
  return launch(cfg, as_kernel(std::move(k)), slot);
}

LaunchResult LaneCtx::launch_async(const LaunchConfig& cfg, Kernel k,
                                   int slot) {
  return attempt(cfg, k, slot, /*deferred=*/true);
}

void LaneCtx::note_degraded() {
  blk_->env_->metrics().robustness.degraded += 1;
}

// ---------------------------------------------------------------------------
// BlockCtx
// ---------------------------------------------------------------------------

BlockCtx::BlockCtx(detail::BlockEnv* env, detail::BlockScratch* scratch,
                   int block_idx, int block_dim, int grid_dim)
    : env_(env),
      scratch_(scratch),
      pool_(env->pool()),
      block_idx_(block_idx),
      block_dim_(block_dim),
      grid_dim_(grid_dim) {
  scratch_->pending_children.clear();
  scratch_->shared.reset();
}

BlockCtx::~BlockCtx() {
  // A kernel that threw leaves warps in flight, reading traces in the
  // scratch the next block reuses. Fold them as finish() would have; an
  // error in that (only allocation can fail) is dropped, since the kernel's
  // own exception is already propagating.
  while (in_flight_ > 0) {
    try {
      fold_oldest();
    } catch (...) {
    }
  }
}

const DeviceSpec& BlockCtx::spec() const { return env_->spec(); }

void* BlockCtx::shared_alloc(std::size_t bytes, std::size_t align) {
  shared_used_ += bytes;
  if (shared_used_ > env_->spec().shared_mem_per_block) {
    throw std::runtime_error("shared memory per block exceeded (" +
                             std::to_string(shared_used_) + " bytes)");
  }
  // Shared arrays start on a full bank cycle (32 banks x 4 bytes), like the
  // statically laid out shared memory of a real SM. This also keeps the
  // bank-conflict model independent of where the host heap placed the
  // arena's chunk. (Arena::alloc raises the alignment to 128 itself; passing
  // the natural alignment through keeps over-aligned element types honest.)
  return scratch_->shared.alloc(bytes, align);
}

void BlockCtx::each_thread(ThreadBodyRef fn) {
  const int warps = (block_dim_ + 31) / 32;
  if (phase_ > 0) {
    // Implicit __syncthreads() between phases, charged when the phase's
    // first warp is folded.
    scratch_->ring[ring_head_].sync_before = env_->spec().sync_cycles * warps;
  }
  ++phase_;
  for (int first = 0; first < block_dim_; first += 32) {
    WarpTrace& tr = scratch_->ring[ring_head_].trace;
    const int lanes = std::min(32, block_dim_ - first);
    tr.begin_warp();
    for (int l = 0; l < lanes; ++l) {
      tr.begin_lane();
      LaneCtx lc(this, &tr, first + l);
      fn(lc);
    }
    flush_warp(lanes);
  }
}

void BlockCtx::flush_warp(int lanes) {
  detail::WarpSlot& s = scratch_->ring[ring_head_];
  s.spec = &env_->spec();
  s.lanes = lanes;
  // A short trace reduces faster than a hand-off to another thread costs;
  // it still waits its turn in the ring if earlier warps are in flight.
  if (pool_ == nullptr || s.trace.size() < detail::kPoolMinOps) {
    detail::reduce_warp(*s.spec, s.trace, lanes, &env_->hist(), s.result);
    if (in_flight_ == 0) {
      fold(s);
      return;
    }
  } else {
    pool_->submit(s);
  }
  ++in_flight_;
  ring_head_ = (ring_head_ + 1) % detail::kWarpRing;
  if (in_flight_ == detail::kWarpRing) fold_oldest();
}

void BlockCtx::fold_oldest() {
  detail::WarpSlot& s =
      scratch_->ring[(ring_head_ + detail::kWarpRing - in_flight_) %
                     detail::kWarpRing];
  --in_flight_;
  pool_->wait(s);
  fold(s);
}

void BlockCtx::fold(detail::WarpSlot& s) {
  const detail::WarpResult& r = s.result;
  issue_cycles_ += s.sync_before;
  s.sync_before = 0.0;
  for (const ChildLaunchRecord& c : r.children) {
    scratch_->pending_children.push_back(
        ChildLaunchRecord{c.child_kernel, issue_cycles_ + c.offset_cycles});
  }
  issue_cycles_ += r.cost;
  Metrics& m = env_->metrics();
  m.warp_steps += r.warp_steps;
  m.active_lane_ops += r.active_lane_ops;
  m.compute_ops += r.compute_ops;
  m.shared_ops += r.shared_ops;
  m.atomic_ops += r.atomic_ops;
  m.device_launches += r.device_launches;
  m.gld_requested_bytes += r.gld_requested_bytes;
  m.gld_transferred_bytes += r.gld_transferred_bytes;
  m.gst_requested_bytes += r.gst_requested_bytes;
  m.gst_transferred_bytes += r.gst_transferred_bytes;
  for (int i = 1; i <= 32; ++i) m.active_lane_hist[i] += r.active_lane_hist[i];
  for (const double f : r.fault_log) m.fault_cycles += f;
  AtomicHist& hist = env_->hist();
  for (const std::uint64_t key : r.atomic_keys) hist.bump(key);
}

BlockCost BlockCtx::finish() {
  while (in_flight_ > 0) fold_oldest();
  BlockCost bc;
  bc.issue_cycles = issue_cycles_;
  bc.warps = static_cast<std::uint32_t>((block_dim_ + 31) / 32);
  const std::vector<ChildLaunchRecord>& pending = scratch_->pending_children;
  bc.children.reserve(pending.size());
  const double total = issue_cycles_ > 0 ? issue_cycles_ : 1.0;
  for (const ChildLaunchRecord& c : pending) {
    bc.children.push_back(ChildLaunch{
        c.child_kernel, std::clamp(c.offset_cycles / total, 0.0, 1.0)});
  }
  Metrics& m = env_->metrics();
  m.blocks += 1;
  m.warps += bc.warps;
  return bc;
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::Recorder(const DeviceSpec& spec, int max_nesting_depth)
    : spec_(spec),
      // Effective depth limit: the tighter of the legacy constructor
      // parameter and the spec's ResourceLimits (both default to 24).
      max_depth_(std::min(max_nesting_depth, spec.limits.max_nesting_depth)) {}

Recorder::~Recorder() = default;

void Recorder::reset() {
  graph_ = LaunchGraph{};
  seq_ = 0;
  host_robustness_ = RobustnessCounters{};
  host_attempt_seq_ = 0;
  stream_ids_.clear();
  stream_tail_.clear();
  events_.clear();
  pending_waits_.clear();
  deferred_.clear();
  trace_ctx_ = TraceContext{};
  drain_rng_.seed(0x9e3779b97f4a7c15ull);
}

std::uint32_t Recorder::intern_stream(std::uint64_t key) {
  bool inserted = false;
  const std::uint32_t id =
      stream_ids_.get_or_insert(key, graph_.num_streams, inserted);
  if (inserted) ++graph_.num_streams;
  return id;
}

std::uint32_t Recorder::stream_id_for_host(int user_stream) {
  if (user_stream == 0) return 0;  // Default stream is dense id 0.
  return intern_stream((1ull << 63) | static_cast<std::uint32_t>(user_stream));
}

std::uint32_t Recorder::stream_id_for_device(std::uint32_t parent_node,
                                             int parent_block, int slot) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(parent_node) << 32) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(parent_block))
       << 8) |
      static_cast<std::uint64_t>(static_cast<std::uint8_t>(slot + 1));
  return intern_stream(key);
}

std::uint32_t Recorder::create_host_node(const LaunchConfig& cfg,
                                         std::uint32_t stream) {
  validate_config(spec_, cfg);
  KernelNode node;
  node.id = static_cast<std::uint32_t>(graph_.nodes.size());
  node.name = cfg.name;
  node.origin = LaunchOrigin::kHost;
  node.grid_blocks = cfg.grid_blocks;
  node.block_threads = cfg.block_threads;
  node.smem_bytes = cfg.smem_bytes;
  node.regs_per_thread = cfg.regs_per_thread;
  node.aggregated_descriptors = cfg.aggregated_descriptors;
  node.stream = stream;
  node.seq = seq_++;
  // Serving-layer provenance: an explicit per-launch context wins over the
  // recorder's ambient one (metadata only — no modeled effect either way).
  const TraceContext& ctx = cfg.trace.active() ? cfg.trace : trace_ctx_;
  if (ctx.active()) {
    node.batch_id = ctx.batch_id;
    node.requesters = ctx.members;
  }
  graph_.nodes.push_back(std::move(node));
  return graph_.nodes.back().id;
}

namespace {
constexpr std::uint32_t kNoNode = 0xffffffffu;
}  // namespace

EventHandle Recorder::record_event(StreamHandle stream) {
  const std::uint32_t sid = stream_id_for_host(stream.id);
  const std::uint32_t* tail = stream_tail_.find(sid);
  events_.push_back(tail == nullptr ? kNoNode : *tail);
  return EventHandle{static_cast<std::uint32_t>(events_.size() - 1)};
}

void Recorder::stream_wait(StreamHandle stream, EventHandle event) {
  if (event.id >= events_.size()) {
    throw std::invalid_argument("stream_wait: unknown event");
  }
  const std::uint32_t captured = events_[event.id];
  if (captured == kNoNode) return;  // Event on an empty stream: complete.
  pending_waits_[stream_id_for_host(stream.id)].push_back(captured);
}

LaunchResult Recorder::launch_host(const LaunchConfig& cfg, const Kernel& k,
                                   StreamHandle stream) {
  // Host-site fault injection: the launch is refused before anything is
  // recorded (a failed cudaLaunchKernel). Keyed on the host launch ordinal,
  // which is engine-independent.
  const std::uint64_t host_key = fault_mix(host_attempt_seq_++);
  if (injector_.enabled() &&
      injector_.should_fail(FaultSite::kHostLaunch, host_key)) {
    ++host_robustness_.faults_injected;
    return LaunchResult{kInvalidLaunchNode, SimtError::kInjectedFault};
  }
  const std::uint32_t sid = stream_id_for_host(stream.id);
  const std::uint32_t id = create_host_node(cfg, sid);
  graph_.nodes[id].metrics.host_launches = 1;
  // Attach (and consume) any cross-stream waits registered on this stream;
  // stream FIFO order carries the dependency to later grids transitively.
  if (const auto it = pending_waits_.find(sid); it != pending_waits_.end()) {
    graph_.nodes[id].depends_on = std::move(it->second);
    pending_waits_.erase(it);
  }
  stream_tail_.put(sid, id);
  try {
    run_grid(id, k);
    // Drain fire-and-forget device launches. The hardware gives no ordering
    // guarantee across blocks, so the drain picks pending grids
    // pseudo-randomly (deterministically seeded): unordered algorithms see
    // the level-mixing and re-traversal work a real nondeterministic
    // schedule causes, not an idealized breadth-first wavefront. (A
    // depth-first order would exceed the CDP nesting limit, exactly as it
    // would on silicon, so execution is never LIFO.)
    while (!deferred_.empty()) {
      const std::size_t pick = drain_rng_() % deferred_.size();
      auto [child_id, child_kernel] = std::move(deferred_[pick]);
      deferred_[pick] = std::move(deferred_.back());
      deferred_.pop_back();
      run_grid(child_id, child_kernel);
    }
  } catch (...) {
    // A failed launch's queued async grids never run: left queued, the next
    // host launch would execute them and charge them to itself.
    deferred_.clear();
    throw;
  }
  return LaunchResult{id, SimtError::kOk};
}

void Recorder::run_grid(std::uint32_t node_id, const Kernel& k) {
  KernelNode& grid = graph_.nodes[node_id];
  const int nblocks = grid.grid_blocks;
  const int nthreads = grid.block_threads;

  // Per-block launch budget: the grid's pool/heap capacity split evenly
  // across its blocks (exhaustion must not depend on cross-block timing).
  detail::LaunchBudget budget0;
  if (spec_.limits.pending_launch_capacity > 0) {
    budget0.pool_quota =
        static_cast<std::uint64_t>(spec_.limits.pending_launch_capacity) /
        static_cast<std::uint64_t>(nblocks);
  }
  if (spec_.limits.device_heap_bytes > 0) {
    budget0.heap_quota =
        static_cast<std::uint64_t>(spec_.limits.device_heap_bytes) /
        static_cast<std::uint64_t>(nblocks);
  }

  if (!records_) records_ = std::make_unique<detail::BlockRecord[]>(2);
  // Cleared here rather than after the grid, so a kernel that threw out of
  // an earlier grid cannot leak its counts into this one.
  grid_hist_.clear();
  grid.blocks.resize(static_cast<std::size_t>(nblocks));

  // Two blocks in the air: block b records while the pool is still reducing
  // block b-1's last warps, and b-1 is finished and merged once b's kernel
  // body has returned. Block b-1's grids were all appended before b ran and
  // merges stay in block order, so ids, seqs, sums and costs are those of
  // recording one block at a time.
  const detail::ScratchLease scratch[2];
  std::optional<detail::EngineEnv> env[2];
  std::optional<BlockCtx> blk[2];
  int pending = -1;  // Recorded, not yet merged.
  const auto merge_pending = [&] {
    const int b = std::exchange(pending, -1);
    detail::BlockRecord& r = records_[b & 1];
    r.cost = blk[b & 1]->finish();
    blk[b & 1].reset();
    env[b & 1].reset();
    merge_block(node_id, static_cast<std::size_t>(b), r);
  };
  int b = 0;
  try {
    for (; b < nblocks; ++b) {
      // Recycled from an earlier block: drop its contents, keep its storage.
      detail::BlockRecord& r = records_[b & 1];
      r.first_node = static_cast<std::uint32_t>(graph_.nodes.size());
      r.first_deferred = deferred_.size();
      r.stream_slots.clear();
      r.metrics = Metrics{};
      r.budget = budget0;
      // node_id is final before any block runs (host nodes are created up
      // front, device nodes when their parent's lane launches them).
      r.budget.grid_key =
          fault_mix((static_cast<std::uint64_t>(node_id) << 24) ^
                    static_cast<std::uint64_t>(b));
      env[b & 1].emplace(this, &r, &grid, &r.metrics, &grid_hist_);
      blk[b & 1].emplace(&*env[b & 1], scratch[b & 1].get(), b, nthreads,
                         nblocks);
      k(*blk[b & 1]);
      if (pending >= 0) merge_pending();
      pending = b;
    }
    merge_pending();
  } catch (...) {
    // Block b threw: drop the grids and deferred launches it recorded, and
    // merge `pending` as block-at-a-time recording would have.
    if (b < nblocks) {
      const detail::BlockRecord& r = records_[b & 1];
      graph_.nodes.resize(r.first_node);
      deferred_.resize(r.first_deferred);
    }
    if (pending >= 0) merge_pending();
    throw;
  }
  grid.hottest_atomic_ops = grid_hist_.max_count();
}

void Recorder::merge_block(std::uint32_t node_id, std::size_t b,
                           detail::BlockRecord& r) {
  // Called in block order, and a block's grids are numbered in DFS creation
  // order, so seq numbers and dense stream ids follow node id order.
  KernelNode& grid = graph_.nodes[node_id];
  grid.blocks[b] = std::move(r.cost);
  grid.metrics += r.metrics;
  for (std::size_t j = 0; j < r.stream_slots.size(); ++j) {
    KernelNode& node = graph_.nodes[r.first_node + j];
    node.stream = stream_id_for_device(
        static_cast<std::uint32_t>(node.parent_kernel), node.parent_block,
        r.stream_slots[j]);
    node.seq = seq_++;
  }
}

// ---------------------------------------------------------------------------
// Warp combining
// ---------------------------------------------------------------------------

namespace {

/// Count unique values in the first `n` slots of `v` (n <= 64) with a
/// generation-stamped open-addressing probe — O(n) against the insertion
/// sort it replaced. Distinct-count is order-invariant, so this is exactly
/// the old sort-then-scan result. Only reached for genuinely out-of-order
/// steps; sorted steps resolve inline in UniqTracker.
int unique_count(const std::uint64_t* v, int n) {
  static thread_local std::uint64_t keys[128];
  static thread_local std::uint32_t gens[128];
  static thread_local std::uint32_t gen = 0;
  if (++gen == 0) {
    // u32 stamp wrapped: stale slots could alias the new generation.
    std::memset(gens, 0, sizeof(gens));
    gen = 1;
  }
  int u = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = v[i];
    std::uint64_t h = (x * 0x9e3779b97f4a7c15ull) >> 57;  // top 7 bits
    for (;;) {
      if (gens[h] != gen) {
        gens[h] = gen;
        keys[h] = x;
        ++u;
        break;
      }
      if (keys[h] == x) break;
      h = (h + 1) & 127;
    }
  }
  return u;
}

}  // namespace

namespace {

/// Running unique-count over a step's segment pushes. Coalesced accesses
/// arrive in ascending segment order, so the count is maintained inline and
/// `resolve` is free; only an out-of-order step pays the insertion-sort
/// fallback. Either path produces exactly the old sort-then-scan result.
/// Max multiplicity of any one value in v[0..n): the atomic serialization
/// "ways" of a warp step. Same generation-stamped open-addressing scheme as
/// unique_count above — multiplicity is order-invariant, so this reproduces
/// the old pairwise O(n^2) scan's result exactly. n <= 32, so a 64-slot
/// table never exceeds half load.
int max_multiplicity(const std::uint64_t* v, int n) {
  static thread_local std::uint64_t keys[64];
  static thread_local std::uint8_t cnt[64];
  static thread_local std::uint32_t gens[64];
  static thread_local std::uint32_t gen = 0;
  if (++gen == 0) {
    std::memset(gens, 0, sizeof(gens));
    gen = 1;
  }
  int best = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = v[i];
    std::uint64_t h = (x * 0x9e3779b97f4a7c15ull) >> 58;  // top 6 bits
    for (;;) {
      if (gens[h] != gen) {
        gens[h] = gen;
        keys[h] = x;
        cnt[h] = 1;
        break;
      }
      if (keys[h] == x) {
        best = std::max<int>(best, ++cnt[h]);
        break;
      }
      h = (h + 1) & 63;
    }
  }
  return best;
}

struct UniqTracker {
  std::uint64_t prev = 0;
  int uniq = 0;
  bool sorted = true;

  void push(std::uint64_t* arr, int& n, std::uint64_t s) {
    // Branchless on the s-vs-prev comparisons: segment order between lanes
    // is data-dependent (scattered graph accesses make it a coin flip), so
    // compare-and-branch here costs a mispredict per op. setcc/cmov
    // arithmetic computes the same uniq/sorted values.
    const bool first = (n == 0);
    uniq += static_cast<int>(first | (s > prev));
    sorted &= first | (s >= prev);
    arr[n++] = s;
    prev = s;
  }
  int resolve(std::uint64_t* arr, int n) const {
    return sorted ? uniq : unique_count(arr, n);
  }
};

/// The reduce_warp loop, specialized on whether the segment sizes are
/// powers of two (they are for every shipped DeviceSpec) so the per-access
/// address->segment mapping is a shift instead of a 64-bit division — the
/// single hottest arithmetic op of the functional pass.
template <bool kPow2>
void reduce_warp_impl(const DeviceSpec& spec, const WarpTrace& trace,
                      int active_lanes, AtomicHist* hist,
                      detail::WarpResult& r, int seg_shift, int aseg_shift) {
  r.cost = 0.0;
  r.warp_steps = r.active_lane_ops = r.compute_ops = r.shared_ops =
      r.atomic_ops = r.device_launches = r.gld_requested_bytes =
          r.gld_transferred_bytes = r.gst_requested_bytes =
              r.gst_transferred_bytes = 0;
  std::uint64_t* const lh = r.active_lane_hist;
  std::fill(lh, lh + 33, std::uint64_t{0});
  r.children.clear();
  r.atomic_keys.clear();
  r.fault_log.clear();
  // Live-lane cursors into the SoA columns, in ascending lane order. A lane
  // whose trace is exhausted is compacted out, so divergent tails cost
  // nothing per step; compaction preserves the ascending order the
  // launch-record sequence depends on.
  std::uint32_t cur[32], end[32];
  int alive = 0;
  for (int l = 0; l < active_lanes; ++l) {
    const std::uint32_t b = trace.lane_begin(l);
    const std::uint32_t e = trace.lane_end(l);
    if (b != e) {
      cur[alive] = b;
      end[alive] = e;
      ++alive;
    }
  }
  if (alive == 0) return;

  const std::uint8_t* kinds = trace.kinds();
  const std::uint32_t* counts = trace.counts();
  const std::uint32_t* op_bytes = trace.bytes();
  const std::uint64_t* addrs = trace.addrs();

  const std::uint64_t seg = static_cast<std::uint64_t>(spec.mem_segment_bytes);
  const std::uint64_t aseg =
      static_cast<std::uint64_t>(spec.atomic_segment_bytes);
  const auto seg_of = [&](std::uint64_t a) -> std::uint64_t {
    if constexpr (kPow2) return a >> seg_shift;
    return a / seg;
  };
  const auto aseg_of = [&](std::uint64_t a) -> std::uint64_t {
    if constexpr (kPow2) return a >> aseg_shift;
    return a / aseg;
  };
  double cost = 0.0;

  // Per-op cycle costs, hoisted so the loop reads registers instead of
  // re-loading through the spec reference (the compiler cannot prove the
  // vector push_back calls leave them unchanged). All are double, so the
  // arithmetic below is bit-identical to reading the fields directly.
  const double compute_cyc = spec.compute_op_cycles;
  const double shared_cyc = spec.shared_op_cycles;
  const double mem_base_cyc = spec.mem_base_cycles;
  const double mem_tx_cyc = spec.mem_transaction_cycles;
  const double atomic_cyc = spec.atomic_op_cycles;
  const double launch_cyc = spec.launch_issue_cycles;

  std::uint64_t ld_segs[64], st_segs[64], at_addrs[32], at_segs[64];
  std::uint32_t bank_count[32];
  std::uint32_t launch_children[32];

  // Integer metrics accumulate in locals and flush once at the end —
  // u64 addition is associative, so batching is exact; it keeps ~10 memory
  // read-modify-writes per step out of the loop. The double-valued ones
  // (cost, the fault-cycle log) keep their per-step order: float addition is
  // not associative and the bit patterns feed the baselines.
  std::uint64_t ws = 0, alo = 0, comp_ops = 0, sh_ops = 0, at_ops = 0,
                dev_launches = 0;
  std::uint64_t gld_req_b = 0, gld_xfer_b = 0, gst_req_b = 0, gst_xfer_b = 0;

  while (alive > 0) {
    if (alive == 1) {
      // Straggler fast path: one live lane left — the dominant tail of any
      // skewed workload (a hub lane outliving its warp by hundreds of
      // steps). Every remaining op forms a single-op step group, so the
      // general loop's gather/group machinery reduces to one switch per op;
      // each arm reproduces its group block exactly (same cost terms, same
      // accumulation order — at most one float add per step).
      const std::uint32_t e = end[0];
      for (std::uint32_t idx = cur[0]; idx < e; ++idx) {
        switch (static_cast<OpKind>(kinds[idx])) {
          case OpKind::kCompute: {
            const std::uint32_t n = counts[idx];
            cost += n * compute_cyc;
            ws += n;
            alo += n;
            comp_ops += n;
            lh[1] += n;
            break;
          }
          case OpKind::kGlobalLoad: {
            const std::uint64_t addr = addrs[idx];
            const std::uint32_t nbytes = op_bytes[idx];
            const std::uint64_t s0 = seg_of(addr);
            const std::uint64_t s1 = seg_of(addr + nbytes - 1);
            const auto k = static_cast<int>(s1 - s0) + 1;
            cost += mem_base_cyc + k * mem_tx_cyc;
            ws += 1;
            alo += 1;
            gld_req_b += nbytes;
            gld_xfer_b += static_cast<std::uint64_t>(k) * seg;
            lh[1] += 1;
            break;
          }
          case OpKind::kGlobalStore: {
            const std::uint64_t addr = addrs[idx];
            const std::uint32_t nbytes = op_bytes[idx];
            const std::uint64_t s0 = seg_of(addr);
            const std::uint64_t s1 = seg_of(addr + nbytes - 1);
            const auto k = static_cast<int>(s1 - s0) + 1;
            cost += mem_base_cyc + k * mem_tx_cyc;
            ws += 1;
            alo += 1;
            gst_req_b += nbytes;
            gst_xfer_b += static_cast<std::uint64_t>(k) * seg;
            lh[1] += 1;
            break;
          }
          case OpKind::kSharedLoad:
          case OpKind::kSharedStore:
            cost += shared_cyc;  // one lane: ways == 1
            ws += 1;
            alo += 1;
            sh_ops += 1;
            lh[1] += 1;
            break;
          case OpKind::kAtomic:
            if (hist != nullptr) {
              hist->bump(aseg_of(addrs[idx]));
            } else {
              r.atomic_keys.push_back(aseg_of(addrs[idx]));
            }
            // One lane: ways == 1, one distinct segment.
            cost += atomic_cyc + mem_tx_cyc;
            ws += 1;
            alo += 1;
            at_ops += 1;
            lh[1] += 1;
            break;
          case OpKind::kLaunch:
            cost += launch_cyc;
            r.children.push_back(ChildLaunchRecord{
                static_cast<std::uint32_t>(addrs[idx]), cost});
            ws += 1;
            alo += 1;
            dev_launches += 1;
            lh[1] += 1;
            break;
          case OpKind::kLaunchFail:
            cost += launch_cyc;
            r.fault_log.push_back(launch_cyc);
            ws += 1;
            alo += 1;
            lh[1] += 1;
            break;
          case OpKind::kStall:
            cost += static_cast<double>(counts[idx]);
            r.fault_log.push_back(static_cast<double>(counts[idx]));
            break;
        }
      }
      break;
    }
    // Steps until some lane's trace runs out: within this window the live
    // set is fixed, so the per-lane exhaustion test (and its two cursor
    // stores) stays out of the scan entirely; cursors advance once when the
    // window closes. Fully converged warps (uniform workloads) retire their
    // whole trace in a single window.
    std::uint32_t window = end[0] - cur[0];
    for (int i = 1; i < alive; ++i) {
      window = std::min(window, end[i] - cur[i]);
    }
    for (std::uint32_t s = 0; s < window; ++s) {
      std::uint32_t comp_n = 0, comp_sum = 0, comp_max = 0;
      std::uint32_t fail_n = 0, stall_max = 0;
      int ld_n = 0, st_n = 0, sh_n = 0, at_n = 0, ln_n = 0;
      int ld_seg_n = 0, st_seg_n = 0, at_seg_n = 0;
      int ld_extra = 0, st_extra = 0;
      std::uint64_t ld_req = 0, st_req = 0;
      std::uint32_t sh_ways = 1;
      UniqTracker ld_uc, st_uc, at_uc;

      for (int i = 0; i < alive; ++i) {
        const std::uint32_t idx = cur[i] + s;
        switch (static_cast<OpKind>(kinds[idx])) {
          case OpKind::kCompute: {
            const std::uint32_t n = counts[idx];
            ++comp_n;
            comp_sum += n;
            comp_max = std::max(comp_max, n);
            break;
          }
          case OpKind::kGlobalLoad: {
            const std::uint64_t addr = addrs[idx];
            const std::uint32_t nbytes = op_bytes[idx];
            ++ld_n;
            ld_req += nbytes;
            const std::uint64_t s0 = seg_of(addr);
            const std::uint64_t s1 = seg_of(addr + nbytes - 1);
            ld_uc.push(ld_segs, ld_seg_n, s0);
            if (s1 != s0) ld_uc.push(ld_segs, ld_seg_n, s1);
            // Long ranged charges (charge_load) span contiguous segments
            // that cannot collide with other lanes' — count them directly.
            if (s1 > s0 + 1) ld_extra += static_cast<int>(s1 - s0 - 1);
            break;
          }
          case OpKind::kGlobalStore: {
            const std::uint64_t addr = addrs[idx];
            const std::uint32_t nbytes = op_bytes[idx];
            ++st_n;
            st_req += nbytes;
            const std::uint64_t s0 = seg_of(addr);
            const std::uint64_t s1 = seg_of(addr + nbytes - 1);
            st_uc.push(st_segs, st_seg_n, s0);
            if (s1 != s0) st_uc.push(st_segs, st_seg_n, s1);
            if (s1 > s0 + 1) st_extra += static_cast<int>(s1 - s0 - 1);
            break;
          }
          case OpKind::kSharedLoad:
          case OpKind::kSharedStore: {
            // Bank-conflict ways = max lanes on one 4-byte bank; counting
            // per bank in one pass matches the old pairwise max exactly.
            const auto bank =
                static_cast<std::uint32_t>((addrs[idx] / 4) % 32);
            if (sh_n == 0) std::memset(bank_count, 0, sizeof(bank_count));
            ++sh_n;
            sh_ways = std::max(sh_ways, ++bank_count[bank]);
            break;
          }
          case OpKind::kAtomic: {
            at_addrs[at_n] = aseg_of(addrs[idx]);
            at_uc.push(at_segs, at_seg_n, seg_of(addrs[idx]));
            ++at_n;
            break;
          }
          case OpKind::kLaunch:
            launch_children[ln_n++] = static_cast<std::uint32_t>(addrs[idx]);
            break;
          case OpKind::kLaunchFail:
            ++fail_n;
            break;
          case OpKind::kStall:
            stall_max = std::max(stall_max, counts[idx]);
            break;
        }
      }

      // Each op-kind group at this step is a separately issued (serialized)
      // instruction with only its lanes active — matching SIMT divergence.
      if (comp_n > 0) {
        cost += comp_max * compute_cyc;
        ws += comp_max;
        alo += comp_sum;
        comp_ops += comp_sum;
        lh[comp_n] += comp_max;
      }
      if (ld_n > 0) {
        const int k = ld_uc.resolve(ld_segs, ld_seg_n) + ld_extra;
        cost += mem_base_cyc + k * mem_tx_cyc;
        ws += 1;
        alo += static_cast<std::uint64_t>(ld_n);
        gld_req_b += ld_req;
        gld_xfer_b += static_cast<std::uint64_t>(k) * seg;
        lh[ld_n] += 1;
      }
      if (st_n > 0) {
        const int k = st_uc.resolve(st_segs, st_seg_n) + st_extra;
        cost += mem_base_cyc + k * mem_tx_cyc;
        ws += 1;
        alo += static_cast<std::uint64_t>(st_n);
        gst_req_b += st_req;
        gst_xfer_b += static_cast<std::uint64_t>(k) * seg;
        lh[st_n] += 1;
      }
      if (sh_n > 0) {
        // Bank-conflict ways (sh_ways): max lanes hitting the same 4-byte
        // bank, counted during the lane scan above.
        cost += shared_cyc * static_cast<int>(sh_ways);
        ws += 1;
        alo += static_cast<std::uint64_t>(sh_n);
        sh_ops += static_cast<std::uint64_t>(sh_n);
        lh[sh_n] += 1;
      }
      if (at_n > 0) {
        // Intra-warp serialization on identical addresses + transactions
        // for the distinct memory segments touched. Multiplicity is
        // order-invariant, so the hashed count below matches the pairwise
        // scan exactly; the scan stays cheaper for tiny groups.
        int ways = 1;
        if (at_n <= 4) {
          for (int i = 1; i < at_n; ++i) {
            int same = 1;
            for (int j = 0; j < i; ++j) {
              if (at_addrs[j] == at_addrs[i]) ++same;
            }
            ways = std::max(ways, same);
          }
        } else {
          ways = max_multiplicity(at_addrs, at_n);
        }
        if (hist != nullptr) {
          for (int i = 0; i < at_n; ++i) hist->bump(at_addrs[i]);
        } else {
          r.atomic_keys.insert(r.atomic_keys.end(), at_addrs,
                               at_addrs + at_n);
        }
        const int k = at_uc.resolve(at_segs, at_seg_n);
        cost += atomic_cyc * ways + k * mem_tx_cyc;
        ws += 1;
        alo += static_cast<std::uint64_t>(at_n);
        at_ops += static_cast<std::uint64_t>(at_n);
        lh[at_n] += 1;
      }
      if (ln_n > 0) {
        // Device launches from one warp serialize through the launch queue.
        for (int i = 0; i < ln_n; ++i) {
          cost += launch_cyc;
          r.children.push_back(ChildLaunchRecord{launch_children[i], cost});
        }
        ws += 1;
        alo += static_cast<std::uint64_t>(ln_n);
        dev_launches += static_cast<std::uint64_t>(ln_n);
        lh[ln_n] += 1;
      }
      if (fail_n > 0) {
        // A refused launch still pays the issue cost (the lane did the work
        // of trying) but produces no child grid and no device_launches.
        cost += fail_n * launch_cyc;
        r.fault_log.push_back(fail_n * launch_cyc);
        ws += 1;
        alo += static_cast<std::uint64_t>(fail_n);
        lh[fail_n] += 1;
      }
      if (stall_max > 0) {
        // Retry backoff: pure idle latency, no throughput metrics.
        cost += static_cast<double>(stall_max);
        r.fault_log.push_back(static_cast<double>(stall_max));
      }
    }

    // Close the window: advance every cursor and compact out the lanes that
    // just exhausted (at least one always does, by construction of window).
    int next_alive = 0;
    for (int i = 0; i < alive; ++i) {
      const std::uint32_t c = cur[i] + window;
      if (c != end[i]) {
        cur[next_alive] = c;
        end[next_alive] = end[i];
        ++next_alive;
      }
    }
    alive = next_alive;
  }

  r.warp_steps = ws;
  r.active_lane_ops = alo;
  r.compute_ops = comp_ops;
  r.shared_ops = sh_ops;
  r.atomic_ops = at_ops;
  r.device_launches = dev_launches;
  r.gld_requested_bytes = gld_req_b;
  r.gld_transferred_bytes = gld_xfer_b;
  r.gst_requested_bytes = gst_req_b;
  r.gst_transferred_bytes = gst_xfer_b;
  r.cost = cost;
}

}  // namespace

namespace detail {

void reduce_warp(const DeviceSpec& spec, const WarpTrace& trace,
                 int active_lanes, AtomicHist* hist, WarpResult& r) {
  const auto seg = static_cast<std::uint64_t>(spec.mem_segment_bytes);
  const auto aseg = static_cast<std::uint64_t>(spec.atomic_segment_bytes);
  if (std::has_single_bit(seg) && std::has_single_bit(aseg)) {
    reduce_warp_impl<true>(spec, trace, active_lanes, hist, r,
                           std::countr_zero(seg), std::countr_zero(aseg));
  } else {
    reduce_warp_impl<false>(spec, trace, active_lanes, hist, r, 0, 0);
  }
}

}  // namespace detail

}  // namespace nestpar::simt
