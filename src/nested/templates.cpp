#include "src/nested/templates.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/simt/aligned.h"
#include "src/simt/profiler.h"

namespace nestpar::nested {

using simt::BlockCtx;
using simt::Device;
using simt::Kernel;
using simt::LaneCtx;
using simt::LaunchConfig;
using simt::ThreadKernel;

std::string_view name(TemplateFamily f) {
  switch (f) {
    case TemplateFamily::kBasic: return "basic";
    case TemplateFamily::kLoadBalancing: return "load-balancing";
    case TemplateFamily::kConsolidation: return "consolidation";
  }
  return "?";
}

void LoopParams::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("LoopParams: " + what);
  };
  if (lb_threshold < 0) {
    fail("lb_threshold must be >= 0 (got " + std::to_string(lb_threshold) +
         ")");
  }
  if (thread_block_size < 1) {
    fail("thread_block_size must be positive (got " +
         std::to_string(thread_block_size) + ")");
  }
  if (block_block_size < 1) {
    fail("block_block_size must be positive (got " +
         std::to_string(block_block_size) + ")");
  }
  if (max_grid_blocks < 1) {
    fail("max_grid_blocks must be positive (got " +
         std::to_string(max_grid_blocks) + ")");
  }
  if (shared_buffer_entries < 1) {
    fail("shared_buffer_entries must be >= 1 (got " +
         std::to_string(shared_buffer_entries) + ")");
  }
  if (cons_buffer_entries < 1) {
    fail("cons_buffer_entries must be >= 1 (got " +
         std::to_string(cons_buffer_entries) + ")");
  }
  if (cons_min_descriptors < 1) {
    fail("cons_min_descriptors must be >= 1 (got " +
         std::to_string(cons_min_descriptors) + ")");
  }
}

namespace {

// --- Schedule primitives -----------------------------------------------------
//
// Every template below is a composition of four per-lane primitives: the
// inline loop, the strided cooperative reduction, and two thread-mapped
// sweeps that defer large iterations — to a per-scope shared buffer or to a
// host-placed global buffer. A template picks where large iterations go
// (nowhere, a warp's or block's shared buffer, a global buffer) and how they
// are drained (inline, block-cooperatively, or through child grids); see the
// table in docs/ARCHITECTURE.md.

/// Inline processing of one outer iteration: the whole inner loop and the
/// commit run in this lane (the source of warp divergence the templates are
/// designed to remove). load_outer must already be charged in this lane.
void process_inline(const NestedLoopWorkload& w, LaneCtx& t, std::int64_t i) {
  const std::uint32_t f = w.inner_size(i);
  double acc = 0.0;
  for (std::uint32_t j = 0; j < f; ++j) acc += w.body(t, i, j);
  w.commit(t, i, acc);
}

/// This lane's share of a cooperative reduction over outer iteration i: it
/// runs inner iterations first, first+stride, ... and adds its partial to
/// the shared `slot`; one lane commits the slot after a phase boundary.
void reduce_strided(const NestedLoopWorkload& w, LaneCtx& t, std::int64_t i,
                    int first, int stride, double* slot) {
  w.load_outer(t, i);
  const std::uint32_t f = w.inner_size(i);
  double acc = 0.0;
  for (auto j = static_cast<std::uint32_t>(first); j < f;
       j += static_cast<std::uint32_t>(stride)) {
    acc += w.body(t, i, j);
  }
  if (acc != 0.0) t.sh_atomic_add(slot, acc);
}

/// Thread-mapped sweep that defers iterations above `thres` into a shared
/// buffer: each claims a slot of `buf` through `count`; the rest — and any
/// overflow past the buffer's capacity — run inline.
void sweep_defer_shared(const NestedLoopWorkload& w, LaneCtx& t,
                        std::uint32_t thres, std::span<std::int32_t> buf,
                        std::int32_t* count) {
  const std::int64_t n = w.size();
  for (std::int64_t i = t.global_idx(); i < n; i += t.grid_threads()) {
    w.load_outer(t, i);
    if (w.inner_size(i) > thres) {
      const std::int32_t idx = t.sh_atomic_add(count, 1);
      if (idx < static_cast<std::int32_t>(buf.size())) {
        t.sh_st(&buf[static_cast<std::size_t>(idx)],
                static_cast<std::int32_t>(i));
        continue;
      }
    }
    process_inline(w, t, i);
  }
}

/// Host-side queue placement shared by dual-queue, dbuf-global and cons-grid.
///
/// The CUDA originals place each deferred iteration at the slot an
/// atomicAdd on a global counter returns — a valid but schedule-dependent
/// order. The model instead fixes one valid interleaving up front: slots in
/// ascending outer-index order, decided from inner_size before the kernel
/// runs. The kernel still executes the atomic append (so the modeled cost
/// and the final counter value are unchanged); only the *return value* is
/// replaced by the precomputed slot. This is what makes queue contents —
/// and everything downstream of them — identical across the serial and
/// parallel host engines.
///
/// Encoding: slot[i] >= 0 is a "small"/inline slot, slot[i] < 0 holds the
/// deferred slot as ~slot[i]. The kernel also branches on this sign instead
/// of re-testing inner_size, so placement stays consistent even if a
/// workload's inner_size shifts while the sweep runs.
struct QueuePlacement {
  std::shared_ptr<const std::int64_t[]> slot;
  std::int64_t small_count = 0;
  std::int64_t big_count = 0;
};

QueuePlacement build_placement(const NestedLoopWorkload& w, int lb_threshold) {
  const std::int64_t n = w.size();
  auto slot = simt::make_segment_array<std::int64_t>(
      static_cast<std::size_t>(std::max<std::int64_t>(n, 1)));
  QueuePlacement q;
  for (std::int64_t i = 0; i < n; ++i) {
    if (w.inner_size(i) > static_cast<std::uint32_t>(lb_threshold)) {
      slot[static_cast<std::size_t>(i)] = ~q.big_count++;
    } else {
      slot[static_cast<std::size_t>(i)] = q.small_count++;
    }
  }
  q.slot = std::move(slot);
  return q;
}

/// Thread-mapped sweep that defers the iterations `q` marks large into a
/// global buffer at their placed slots (appending through `count`); the rest
/// run inline.
void sweep_defer_global(const NestedLoopWorkload& w, LaneCtx& t,
                        const QueuePlacement& q, std::int64_t* buffer,
                        std::int64_t* count) {
  const std::int64_t n = w.size();
  for (std::int64_t i = t.global_idx(); i < n; i += t.grid_threads()) {
    w.load_outer(t, i);
    const std::int64_t s = q.slot[static_cast<std::size_t>(i)];
    if (s < 0) {
      t.atomic_add(count, std::int64_t{1});
      t.st(&buffer[static_cast<std::size_t>(~s)], i);
    } else {
      process_inline(w, t, i);
    }
  }
}

// --- Kernels and launch configurations ---------------------------------------

/// Work list handed to block-mapped kernels. Either an explicit list of
/// outer-iteration indices (queue / delayed buffer) or the identity range
/// [0, count) for pure block mapping. Lists live in segment-aligned arrays
/// (simt::make_segment_array) so the coalescing model charges the same cost
/// no matter which host thread allocated them.
struct WorkList {
  std::shared_ptr<const std::int64_t[]> items;  ///< null = identity
  std::int64_t count = 0;

  std::int64_t get(LaneCtx& t, std::int64_t k) const {
    if (items == nullptr) return k;
    return t.ld(&items[static_cast<std::size_t>(k)]);
  }
};

/// Block-mapped kernel: block b processes work items b, b+gridDim, ... with
/// the inner loop split across the block's threads and the reduction done in
/// shared memory (one commit per iteration, from thread 0).
Kernel make_block_mapped_kernel(const NestedLoopWorkload& w, WorkList list) {
  return [&w, list = std::move(list)](BlockCtx& blk) {
    auto partial = blk.shared_array<double>(1);
    auto item = blk.shared_array<std::int64_t>(1);
    for (std::int64_t k = blk.block_idx(); k < list.count;
         k += blk.grid_dim()) {
      blk.each_thread([&](LaneCtx& t) {
        const std::int64_t i = list.get(t, k);
        if (t.thread_idx() == 0) t.sh_st(&item[0], i);
        reduce_strided(w, t, i, t.thread_idx(), t.block_dim(), &partial[0]);
      });
      blk.each_thread([&](LaneCtx& t) {
        if (t.thread_idx() != 0) return;
        const std::int64_t i = t.sh_ld(&item[0]);
        w.commit(t, i, t.sh_ld(&partial[0]));
        t.sh_st(&partial[0], 0.0);
      });
    }
  };
}

/// Single-iteration block kernel used by dpar-naive child launches. Unlike
/// the block-mapped kernel it has no work list to stage through shared
/// memory and no slot to reset.
Kernel make_single_iteration_kernel(const NestedLoopWorkload& w,
                                    std::int64_t i) {
  return [&w, i](BlockCtx& blk) {
    auto partial = blk.shared_array<double>(1);
    blk.each_thread([&](LaneCtx& t) {
      reduce_strided(w, t, i, t.thread_idx(), t.block_dim(), &partial[0]);
    });
    blk.each_thread([&](LaneCtx& t) {
      if (t.thread_idx() == 0) w.commit(t, i, t.sh_ld(&partial[0]));
    });
  };
}

std::string kname(const NestedLoopWorkload& w, LoopTemplate tmpl,
                  const char* phase) {
  return std::string(w.name()) + "/" + std::string(name(tmpl)) + "/" + phase;
}

LaunchConfig thread_cfg(const NestedLoopWorkload& w, LoopTemplate tmpl,
                        const char* phase, std::int64_t items,
                        const LoopParams& p) {
  LaunchConfig c;
  c.block_threads = p.thread_block_size;
  c.grid_blocks = Device::blocks_for(items, p.thread_block_size,
                                     p.max_grid_blocks);
  c.name = kname(w, tmpl, phase);
  return c;
}

LaunchConfig block_cfg(const NestedLoopWorkload& w, LoopTemplate tmpl,
                       const char* phase, std::int64_t items,
                       const LoopParams& p) {
  LaunchConfig c;
  c.block_threads = p.block_block_size;
  c.grid_blocks = static_cast<int>(std::clamp<std::int64_t>(
      items, 1, p.max_grid_blocks));
  c.name = kname(w, tmpl, phase);
  return c;
}

/// Thread-mapped launch over every outer iteration, all processed inline.
void launch_thread_mapped(Device& dev, const NestedLoopWorkload& w,
                          LoopTemplate tmpl, const LoopParams& p) {
  const std::int64_t n = w.size();
  dev.launch_threads(thread_cfg(w, tmpl, "main", n, p), [&w, n](LaneCtx& t) {
    for (std::int64_t i = t.global_idx(); i < n; i += t.grid_threads()) {
      w.load_outer(t, i);
      process_inline(w, t, i);
    }
  });
}

/// Host launch of a block-mapped grid over the `count` deferred iterations
/// in `buffer` (dual-queue's big queue, dbuf-global's buffer); none, no grid.
void launch_block_mapped_buffer(Device& dev, const NestedLoopWorkload& w,
                                LoopTemplate tmpl, const char* phase,
                                std::shared_ptr<std::int64_t[]> buffer,
                                std::int64_t count, const LoopParams& p,
                                simt::StreamHandle stream = {}) {
  if (count == 0) return;
  dev.launch(block_cfg(w, tmpl, phase, count, p),
             make_block_mapped_kernel(w, WorkList{std::move(buffer), count}),
             stream);
}

// --- Templates ---------------------------------------------------------------

void run_baseline(Device& dev, const NestedLoopWorkload& w,
                  const LoopParams& p) {
  launch_thread_mapped(dev, w, LoopTemplate::kBaseline, p);
}

void run_block_mapped(Device& dev, const NestedLoopWorkload& w,
                      const LoopParams& p) {
  dev.launch(block_cfg(w, LoopTemplate::kBlockMapped, "main", w.size(), p),
             make_block_mapped_kernel(w, WorkList{nullptr, w.size()}));
}

/// Virtual warp-centric mapping: warp k processes outer iterations
/// k, k+warps, ...; lanes stride the inner loop and reduce through a
/// per-warp shared slot (warp-synchronous, no barrier needed on hardware;
/// expressed with an explicit phase here).
void run_warp_mapped(Device& dev, const NestedLoopWorkload& w,
                     const LoopParams& p) {
  const std::int64_t n = w.size();
  LaunchConfig cfg = thread_cfg(w, LoopTemplate::kWarpMapped, "main",
                                n * 32, p);
  cfg.smem_bytes = static_cast<std::size_t>(
      (p.thread_block_size + 31) / 32 * sizeof(double));
  dev.launch(cfg, [&w, n](BlockCtx& blk) {
    const int warps_per_block = (blk.block_dim() + 31) / 32;
    auto partial = blk.shared_array<double>(
        static_cast<std::size_t>(warps_per_block));
    const std::int64_t total_warps =
        static_cast<std::int64_t>(blk.grid_dim()) * warps_per_block;
    // Each warp may own several outer iterations (grid-stride by warp);
    // phases alternate accumulate / commit once per stride round.
    const std::int64_t first_warp =
        static_cast<std::int64_t>(blk.block_idx()) * warps_per_block;
    // All warps of the block must run the same number of phases.
    std::int64_t max_rounds = 0;
    for (int wp = 0; wp < warps_per_block; ++wp) {
      std::int64_t r = 0;
      for (std::int64_t i = first_warp + wp; i < n; i += total_warps) ++r;
      max_rounds = std::max(max_rounds, r);
    }
    for (std::int64_t round = 0; round < max_rounds; ++round) {
      blk.each_thread([&](LaneCtx& t) {
        const std::int64_t i = first_warp + t.warp() + round * total_warps;
        if (i >= n) return;
        reduce_strided(w, t, i, t.lane(), 32, &partial[t.warp()]);
      });
      blk.each_thread([&](LaneCtx& t) {
        const std::int64_t i = first_warp + t.warp() + round * total_warps;
        if (i >= n || t.lane() != 0) return;
        w.commit(t, i, t.sh_ld(&partial[t.warp()]));
        t.sh_st(&partial[t.warp()], 0.0);
      });
    }
  });
}

void run_dual_queue(Device& dev, const NestedLoopWorkload& w,
                    const LoopParams& p) {
  const std::int64_t n = w.size();
  const QueuePlacement q = build_placement(w, p.lb_threshold);
  // Profiling telemetry: the dual-queue split sizes, attributed to the build
  // kernel about to launch. Gated here (not just inside prof_counter) because
  // kname() allocates.
  if (simt::active_profile() != nullptr) {
    dev.prof_counter(kname(w, LoopTemplate::kDualQueue, "small_count"),
                     static_cast<double>(q.small_count));
    dev.prof_counter(kname(w, LoopTemplate::kDualQueue, "big_count"),
                     static_cast<double>(q.big_count));
  }
  auto small_q = simt::make_segment_array<std::int64_t>(
      static_cast<std::size_t>(std::max<std::int64_t>(q.small_count, 1)));
  auto big_q = simt::make_segment_array<std::int64_t>(
      static_cast<std::size_t>(std::max<std::int64_t>(q.big_count, 1)));
  auto counts = std::make_shared<std::pair<std::int64_t, std::int64_t>>(0, 0);

  // Phase 1: classify every outer iteration into one of the two queues.
  // This full extra pass is the dual-queue overhead the paper calls out.
  dev.launch_threads(
      thread_cfg(w, LoopTemplate::kDualQueue, "build", n, p),
      [&w, n, small_q, big_q, counts, q](LaneCtx& t) {
        for (std::int64_t i = t.global_idx(); i < n; i += t.grid_threads()) {
          w.load_outer(t, i);
          const std::int64_t s = q.slot[static_cast<std::size_t>(i)];
          if (s < 0) {
            t.atomic_add(&counts->second, std::int64_t{1});
            t.st(&big_q[static_cast<std::size_t>(~s)], i);
          } else {
            t.atomic_add(&counts->first, std::int64_t{1});
            t.st(&small_q[static_cast<std::size_t>(s)], i);
          }
        }
      });

  // Phase 2: the two queues are independent, so their kernels run in
  // separate streams gated on the build kernel's event (the natural CUDA
  // implementation: record after build, wait in both worker streams).
  if (simt::active_profile() != nullptr) {
    dev.prof_instant(kname(w, LoopTemplate::kDualQueue, "flush"), "queue");
  }
  const simt::StreamHandle small_stream{1}, big_stream{2};
  const simt::EventHandle after_build = dev.record_event({});
  dev.stream_wait(small_stream, after_build);
  dev.stream_wait(big_stream, after_build);

  // 2a: small iterations, thread-mapped (low divergence by design).
  dev.launch_threads(
      thread_cfg(w, LoopTemplate::kDualQueue, "small", q.small_count, p),
      [&w, small_q, c = q.small_count](LaneCtx& t) {
        for (std::int64_t k = t.global_idx(); k < c; k += t.grid_threads()) {
          const std::int64_t i = t.ld(&small_q[static_cast<std::size_t>(k)]);
          w.load_outer(t, i);
          process_inline(w, t, i);
        }
      },
      small_stream);

  // 2b: large iterations, block-mapped.
  launch_block_mapped_buffer(dev, w, LoopTemplate::kDualQueue, "big",
                             std::move(big_q), q.big_count, p, big_stream);

  // Later default-stream work (e.g. the next SSSP sweep) must wait for both
  // queue kernels.
  dev.stream_wait({}, dev.record_event(small_stream));
  dev.stream_wait({}, dev.record_event(big_stream));
}

void run_dbuf_global(Device& dev, const NestedLoopWorkload& w,
                     const LoopParams& p) {
  const std::int64_t n = w.size();
  const QueuePlacement q = build_placement(w, p.lb_threshold);
  if (simt::active_profile() != nullptr) {
    dev.prof_counter(kname(w, LoopTemplate::kDbufGlobal, "deferred"),
                     static_cast<double>(q.big_count));
  }
  auto buffer = simt::make_segment_array<std::int64_t>(
      static_cast<std::size_t>(std::max<std::int64_t>(q.big_count, 1)));
  auto count = std::make_shared<std::int64_t>(0);

  // Phase 1: thread-mapped; large iterations are delayed to a global buffer.
  dev.launch_threads(
      thread_cfg(w, LoopTemplate::kDbufGlobal, "main", n, p),
      [&w, buffer, count, q](LaneCtx& t) {
        sweep_defer_global(w, t, q, buffer.get(), count.get());
      });

  // Phase 2: the buffer is partitioned fairly across a fresh grid of blocks
  // (the inter-block redistribution dbuf-shared cannot do).
  if (simt::active_profile() != nullptr) {
    dev.prof_instant(kname(w, LoopTemplate::kDbufGlobal, "flush"), "queue");
  }
  launch_block_mapped_buffer(dev, w, LoopTemplate::kDbufGlobal, "buffer",
                             std::move(buffer), q.big_count, p);
}

void run_dbuf_shared(Device& dev, const NestedLoopWorkload& w,
                     const LoopParams& p) {
  const std::int64_t n = w.size();
  LaunchConfig cfg = thread_cfg(w, LoopTemplate::kDbufShared, "main", n, p);
  const int cap = p.shared_buffer_entries;
  // The delayed buffer (int32 indices), per-entry accumulators, and the
  // counter.
  cfg.smem_bytes = static_cast<std::size_t>(cap) *
                       (sizeof(std::int32_t) + sizeof(double)) +
                   sizeof(std::int32_t);
  const auto thres = static_cast<std::uint32_t>(p.lb_threshold);

  // Profiling telemetry: per-block delayed-buffer occupancy, recomputed on
  // the host from the same ownership rule the kernel uses (thread g owns
  // iterations g, g+grid_threads, ...; g's block is (g % grid_threads) /
  // block_threads). Deferrals past the buffer capacity fall back to inline
  // processing, so occupancy is clamped at `cap`.
  if (simt::active_profile() != nullptr) {
    const std::int64_t grid_threads =
        static_cast<std::int64_t>(cfg.grid_blocks) * cfg.block_threads;
    std::vector<std::int64_t> deferred(
        static_cast<std::size_t>(cfg.grid_blocks), 0);
    for (std::int64_t i = 0; i < n; ++i) {
      if (w.inner_size(i) > thres) {
        ++deferred[static_cast<std::size_t>((i % grid_threads) /
                                            cfg.block_threads)];
      }
    }
    const std::string track = kname(w, LoopTemplate::kDbufShared, "occupancy");
    for (const std::int64_t d : deferred) {
      dev.prof_value(track, static_cast<double>(
                                std::min<std::int64_t>(d, cap)));
    }
  }

  dev.launch(cfg, [&w, cap, thres](BlockCtx& blk) {
    // Allocation order (buffer, accumulators, counter) fixes the shared
    // addresses the bank model sees.
    auto buf = blk.shared_array<std::int32_t>(static_cast<std::size_t>(cap));
    auto accs = blk.shared_array<double>(static_cast<std::size_t>(cap));
    auto count = blk.shared_array<std::int32_t>(1);

    // Phase 1: process small iterations inline; delay large ones into the
    // per-block shared buffer.
    blk.each_thread(
        [&](LaneCtx& t) { sweep_defer_shared(w, t, thres, buf, &count[0]); });

    // Phase 2: the whole block cooperates on each buffered iteration.
    blk.each_thread([&](LaneCtx& t) {
      const std::int32_t c = std::min(t.sh_ld(&count[0]), cap);
      for (std::int32_t k = 0; k < c; ++k) {
        reduce_strided(w, t, t.sh_ld(&buf[k]), t.thread_idx(), t.block_dim(),
                       &accs[k]);
      }
    });

    // Phase 3: one commit per buffered iteration.
    blk.each_thread([&](LaneCtx& t) {
      const std::int32_t c = std::min(t.sh_ld(&count[0]), cap);
      for (std::int32_t k = t.thread_idx(); k < c; k += t.block_dim()) {
        const std::int64_t i = t.sh_ld(&buf[k]);
        w.commit(t, i, t.sh_ld(&accs[k]));
      }
    });
  });
}

void run_dpar_naive(Device& dev, const NestedLoopWorkload& w,
                    const LoopParams& p) {
  const std::int64_t n = w.size();
  dev.launch_threads(
      thread_cfg(w, LoopTemplate::kDparNaive, "main", n, p),
      [&w, n, &p](LaneCtx& t) {
        for (std::int64_t i = t.global_idx(); i < n; i += t.grid_threads()) {
          w.load_outer(t, i);
          if (w.inner_size(i) > static_cast<std::uint32_t>(p.lb_threshold)) {
            // One nested launch per large iteration — the paper's overhead
            // cautionary tale.
            LaunchConfig child;
            child.grid_blocks = 1;
            child.block_threads = p.block_block_size;
            child.name = kname(w, LoopTemplate::kDparNaive, "child");
            if (t.launch(child, make_single_iteration_kernel(w, i))) {
              continue;
            }
            // Launch refused (pool/depth/heap or persistent fault): degrade
            // to processing the iteration inline in this lane — slow but
            // correct, like the small-iteration path.
            t.note_degraded();
          }
          process_inline(w, t, i);
        }
      });
}

/// dpar-opt's drain of one block's delayed buffer: stage the deferred
/// iterations to global memory (the child grid reads its work list from
/// there) and launch one block-mapped child covering all of them — fewer,
/// larger grids than dpar-naive.
void drain_block_mapped_child(LaneCtx& t, const NestedLoopWorkload& w,
                              const LoopParams& p, LoopTemplate tmpl,
                              std::span<const std::int32_t> deferred) {
  const std::size_t c = deferred.size();
  auto items = simt::make_segment_array<std::int64_t>(c);
  for (std::size_t k = 0; k < c; ++k) {
    t.st(&items[k], static_cast<std::int64_t>(t.sh_ld(&deferred[k])));
  }
  WorkList list{std::move(items), static_cast<std::int64_t>(c)};
  LaunchConfig child;
  child.grid_blocks = static_cast<int>(c);
  child.block_threads = p.block_block_size;
  child.name = kname(w, tmpl, "child");
  if (t.launch(child, make_block_mapped_kernel(w, std::move(list)))) {
    return;
  }
  // Child grid refused: drain the delayed buffer inline instead — this lane
  // serially replays the block-mapped child's work.
  t.note_degraded();
  for (std::size_t k = 0; k < c; ++k) {
    const std::int64_t i = t.sh_ld(&deferred[k]);
    w.load_outer(t, i);
    process_inline(w, t, i);
  }
}

// --- Workload consolidation (cons-warp / cons-block / cons-grid) -------------
//
// Instead of one child grid per large iteration (dpar-naive) or per block
// (dpar-opt), the deferred iterations of an aggregation scope are described
// by an {outer index, inner-range} descriptor bundle in global memory, and
// ONE consolidated child grid per scope processes the *concatenation* of all
// inner ranges, evenly split across its lanes (a merge-path-style split:
// each lane binary-searches the prefix-offset array for its starting
// descriptor, then walks forward). The launch carries
// `aggregated_descriptors = K` so the GMU charges one activation plus K-1
// cheap per-descriptor services instead of K activations.

/// Descriptor bundle staged to global memory for one consolidated child
/// launch: the deferred outer indices, the exclusive prefix offsets of their
/// inner sizes (count+1 entries), and one accumulator per descriptor.
struct ConsBundle {
  std::shared_ptr<std::int64_t[]> items;
  std::shared_ptr<std::int64_t[]> offsets;
  std::shared_ptr<double[]> acc;
  std::int64_t count = 0;
  std::int64_t total = 0;  ///< Concatenated inner elements (offsets[count]).

  explicit ConsBundle(std::int64_t n)
      : items(simt::make_segment_array<std::int64_t>(
            static_cast<std::size_t>(n))),
        offsets(simt::make_segment_array<std::int64_t>(
            static_cast<std::size_t>(n) + 1)),
        acc(simt::make_segment_array<double>(static_cast<std::size_t>(n))),
        count(n) {}
};

/// The consolidated child: lane g owns the contiguous element chunk
/// [g*total/T, (g+1)*total/T) of the concatenation, so the child is balanced
/// regardless of how skewed the individual descriptors are. Partials flush
/// to the per-descriptor accumulator at each descriptor boundary; commits
/// stay with the parent (which knows when the child has finished).
ThreadKernel make_consolidated_kernel(const NestedLoopWorkload& w,
                                      ConsBundle b) {
  return [&w, b = std::move(b)](LaneCtx& t) {
    const std::int64_t threads = t.grid_threads();
    const std::int64_t begin = t.global_idx() * b.total / threads;
    const std::int64_t end = (t.global_idx() + 1) * b.total / threads;
    if (begin >= end) return;
    // Binary-search the last descriptor whose range starts at or before
    // `begin`; each probe is a real global load of the offsets array.
    std::int64_t lo = 0, hi = b.count - 1;
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo + 1) / 2;
      if (t.ld(&b.offsets[static_cast<std::size_t>(mid)]) <= begin) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    std::int64_t e = begin;
    for (std::int64_t k = lo; k < b.count && e < end; ++k) {
      const std::int64_t i = t.ld(&b.items[static_cast<std::size_t>(k)]);
      const std::int64_t kbegin =
          t.ld(&b.offsets[static_cast<std::size_t>(k)]);
      const std::int64_t kend =
          t.ld(&b.offsets[static_cast<std::size_t>(k + 1)]);
      if (kend <= e) continue;  // Empty descriptor range.
      w.load_outer(t, i);
      double partial = 0.0;
      const std::int64_t stop = std::min(end, kend);
      for (; e < stop; ++e) {
        partial += w.body(t, i, static_cast<std::uint32_t>(e - kbegin));
      }
      if (partial != 0.0) {
        t.atomic_add(&b.acc[static_cast<std::size_t>(k)], partial);
      }
    }
  };
}

/// Child configuration for one consolidated launch over bundle `b`.
LaunchConfig consolidated_cfg(const NestedLoopWorkload& w, LoopTemplate tmpl,
                              const ConsBundle& b, const LoopParams& p) {
  LaunchConfig child;
  child.block_threads = p.block_block_size;
  child.grid_blocks =
      Device::blocks_for(b.total, p.block_block_size, p.max_grid_blocks);
  child.aggregated_descriptors = static_cast<int>(
      std::min<std::int64_t>(b.count, std::numeric_limits<int>::max()));
  child.name = kname(w, tmpl, "child");
  return child;
}

/// cons-warp's and cons-block's drain of one scope's delayed buffer: stage
/// the deferred iterations into a descriptor bundle, then either drain them
/// inline in this lane (below cons_min_descriptors — the consolidation
/// papers' thresholding heuristic, not a degradation) or launch one
/// consolidated child grid and commit its per-descriptor results.
void drain_consolidated_child(LaneCtx& t, const NestedLoopWorkload& w,
                              const LoopParams& p, LoopTemplate tmpl,
                              std::span<const std::int32_t> deferred) {
  const auto c = static_cast<std::int64_t>(deferred.size());
  ConsBundle b(c);
  std::int64_t total = 0;
  for (std::size_t k = 0; k < deferred.size(); ++k) {
    const std::int64_t i = t.sh_ld(&deferred[k]);
    w.load_outer(t, i);
    t.st(&b.items[k], i);
    t.st(&b.offsets[k], total);
    total += w.inner_size(i);
  }
  t.st(&b.offsets[deferred.size()], total);
  b.total = total;

  bool launched = false;
  if (c >= p.cons_min_descriptors && total > 0) {
    launched = static_cast<bool>(t.launch_threads(
        consolidated_cfg(w, tmpl, b, p), make_consolidated_kernel(w, b)));
    // Aggregated launch refused: drain the whole scope inline — slow but
    // correct, mirroring dpar-opt's degradation path.
    if (!launched) t.note_degraded();
  }
  for (std::size_t k = 0; k < deferred.size(); ++k) {
    const std::int64_t i = t.ld(&b.items[k]);
    if (launched) {
      // Child done (synchronizing launch): one commit per descriptor from
      // the leader, which already holds each iteration's outer data.
      w.commit(t, i, t.ld(&b.acc[k]));
    } else {
      process_inline(w, t, i);
    }
  }
}

/// dpar-opt, cons-block and cons-warp: one thread-mapped kernel defers large
/// iterations into a shared buffer per block (per warp for cons-warp); then
/// each scope's leader drains its buffer through one child grid —
/// block-mapped for dpar-opt, consolidated for the cons-* templates.
/// Buffer overflow falls back to inline processing.
template <LoopTemplate T>
void run_shared_deferral(Device& dev, const NestedLoopWorkload& w,
                         const LoopParams& p) {
  constexpr bool per_warp = T == LoopTemplate::kConsWarp;
  constexpr bool consolidate = T != LoopTemplate::kDparOpt;
  const int cap =
      consolidate ? p.cons_buffer_entries : p.shared_buffer_entries;
  const int scopes = per_warp ? (p.thread_block_size + 31) / 32 : 1;
  LaunchConfig cfg = thread_cfg(w, T, "main", w.size(), p);
  // Each scope's buffer (int32 indices) and counter.
  cfg.smem_bytes = static_cast<std::size_t>(scopes) *
                   (static_cast<std::size_t>(cap) + 1) * sizeof(std::int32_t);
  const auto thres = static_cast<std::uint32_t>(p.lb_threshold);

  dev.launch(cfg, [&w, cap, scopes, thres, &p](BlockCtx& blk) {
    auto buf = blk.shared_array<std::int32_t>(
        static_cast<std::size_t>(scopes) * cap);
    auto count = blk.shared_array<std::int32_t>(
        static_cast<std::size_t>(scopes));
    const auto scope = [](LaneCtx& t) { return per_warp ? t.warp() : 0; };
    const auto scope_buf = [&](int s) {
      return buf.subspan(static_cast<std::size_t>(s) * cap,
                         static_cast<std::size_t>(cap));
    };

    blk.each_thread([&](LaneCtx& t) {
      sweep_defer_shared(w, t, thres, scope_buf(scope(t)), &count[scope(t)]);
    });

    blk.each_thread([&](LaneCtx& t) {
      if ((per_warp ? t.lane() : t.thread_idx()) != 0) return;
      const int s = scope(t);
      const std::int32_t c = std::min(t.sh_ld(&count[s]), cap);
      if (c == 0) return;
      const std::span<const std::int32_t> deferred =
          scope_buf(s).first(static_cast<std::size_t>(c));
      if constexpr (consolidate) {
        drain_consolidated_child(t, w, p, T, deferred);
      } else {
        drain_block_mapped_child(t, w, p, T, deferred);
      }
    });
  });
}

/// cons-grid: the whole kernel's deferred iterations aggregate into a single
/// consolidated child, launched by a one-block "launch" kernel (modeling the
/// one parent thread that fires the aggregated grid).
void run_cons_grid(Device& dev, const NestedLoopWorkload& w,
                   const LoopParams& p) {
  const std::int64_t n = w.size();
  const QueuePlacement q = build_placement(w, p.lb_threshold);
  if (simt::active_profile() != nullptr) {
    dev.prof_counter(kname(w, LoopTemplate::kConsGrid, "deferred"),
                     static_cast<double>(q.big_count));
  }

  if (q.big_count < p.cons_min_descriptors) {
    // Too few large iterations to be worth an aggregated launch: process
    // everything inline, thread-mapped (the thresholding heuristic).
    launch_thread_mapped(dev, w, LoopTemplate::kConsGrid, p);
    return;
  }

  ConsBundle b(q.big_count);
  // Host-precomputed prefix offsets (deterministic, like the placement
  // itself); the launch kernel charges the scan's loads below.
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t s = q.slot[static_cast<std::size_t>(i)];
    if (s < 0) {
      b.offsets[static_cast<std::size_t>(~s)] = b.total;
      b.total += w.inner_size(i);
    }
  }
  b.offsets[static_cast<std::size_t>(q.big_count)] = b.total;

  // Phase 1: thread-mapped; large iterations are delayed to the global
  // descriptor buffer (same mechanics as dbuf-global's main kernel).
  auto count = std::make_shared<std::int64_t>(0);
  dev.launch_threads(
      thread_cfg(w, LoopTemplate::kConsGrid, "main", n, p),
      [&w, b, count, q](LaneCtx& t) {
        sweep_defer_global(w, t, q, b.items.get(), count.get());
      });

  // Phase 2: a one-block launch kernel. Thread 0 reads the descriptor
  // bundle (charging the scan) and fires the single consolidated child;
  // after it completes, all threads of the block stride the commits.
  LaunchConfig lcfg;
  lcfg.grid_blocks = 1;
  lcfg.block_threads = p.block_block_size;
  lcfg.smem_bytes = sizeof(std::int32_t);
  lcfg.name = kname(w, LoopTemplate::kConsGrid, "launch");
  dev.launch(lcfg, [&w, b, &p](BlockCtx& blk) {
    auto ok = blk.shared_array<std::int32_t>(1);
    blk.each_thread([&](LaneCtx& t) {
      if (t.thread_idx() != 0) return;
      // The aggregating thread walks the staged descriptors (items and the
      // prefix-offset scan) before issuing the launch.
      t.charge_load(b.items.get(),
                    static_cast<std::uint32_t>(b.count * sizeof(std::int64_t)));
      t.charge_load(b.offsets.get(), static_cast<std::uint32_t>(
                                         (b.count + 1) * sizeof(std::int64_t)));
      t.compute(static_cast<std::uint32_t>(b.count));
      if (t.launch_threads(
              consolidated_cfg(w, LoopTemplate::kConsGrid, b, p),
              make_consolidated_kernel(w, b))) {
        t.sh_st(&ok[0], 1);
        return;
      }
      // Aggregated launch refused: this lane drains every descriptor
      // serially — the degradation path.
      t.note_degraded();
      t.sh_st(&ok[0], 0);
      for (std::int64_t k = 0; k < b.count; ++k) {
        const std::int64_t i = t.ld(&b.items[static_cast<std::size_t>(k)]);
        w.load_outer(t, i);
        process_inline(w, t, i);
      }
    });
    blk.each_thread([&](LaneCtx& t) {
      if (t.sh_ld(&ok[0]) == 0) return;  // Serial drain already committed.
      for (std::int64_t k = t.thread_idx(); k < b.count;
           k += t.block_dim()) {
        const std::int64_t i = t.ld(&b.items[static_cast<std::size_t>(k)]);
        w.load_outer(t, i);
        w.commit(t, i, t.ld(&b.acc[static_cast<std::size_t>(k)]));
      }
    });
  });
}

}  // namespace

// --- The template registry ---------------------------------------------------
//
// One row per template; names, parsers, family listings, autotune defaults
// and the dispatch below all derive from this table. Adding a template is a
// one-row change (plus its run function).
namespace {
constexpr LoopTemplateDesc kLoopTemplateRegistry[] = {
    {LoopTemplate::kBaseline, "baseline", TemplateFamily::kBasic, false,
     &run_baseline},
    {LoopTemplate::kBlockMapped, "block-mapped", TemplateFamily::kBasic, false,
     &run_block_mapped},
    {LoopTemplate::kWarpMapped, "warp-mapped", TemplateFamily::kBasic, false,
     &run_warp_mapped},
    {LoopTemplate::kDualQueue, "dual-queue", TemplateFamily::kLoadBalancing,
     true, &run_dual_queue},
    {LoopTemplate::kDbufShared, "dbuf-shared", TemplateFamily::kLoadBalancing,
     true, &run_dbuf_shared},
    {LoopTemplate::kDbufGlobal, "dbuf-global", TemplateFamily::kLoadBalancing,
     true, &run_dbuf_global},
    {LoopTemplate::kDparNaive, "dpar-naive", TemplateFamily::kLoadBalancing,
     false, &run_dpar_naive},
    {LoopTemplate::kDparOpt, "dpar-opt", TemplateFamily::kLoadBalancing, true,
     &run_shared_deferral<LoopTemplate::kDparOpt>},
    {LoopTemplate::kConsWarp, "cons-warp", TemplateFamily::kConsolidation,
     true, &run_shared_deferral<LoopTemplate::kConsWarp>},
    {LoopTemplate::kConsBlock, "cons-block", TemplateFamily::kConsolidation,
     true, &run_shared_deferral<LoopTemplate::kConsBlock>},
    {LoopTemplate::kConsGrid, "cons-grid", TemplateFamily::kConsolidation,
     true, &run_cons_grid},
};
}  // namespace

std::span<const LoopTemplateDesc> loop_templates() {
  return kLoopTemplateRegistry;
}

const LoopTemplateDesc& describe(LoopTemplate t) {
  for (const LoopTemplateDesc& d : kLoopTemplateRegistry) {
    if (d.tmpl == t) return d;
  }
  throw std::invalid_argument("unknown loop template");
}

std::vector<LoopTemplate> templates_in_family(TemplateFamily f) {
  std::vector<LoopTemplate> out;
  for (const LoopTemplateDesc& d : kLoopTemplateRegistry) {
    if (d.family == f) out.push_back(d.tmpl);
  }
  return out;
}

std::vector<LoopTemplate> default_autotune_templates() {
  std::vector<LoopTemplate> out;
  for (const LoopTemplateDesc& d : kLoopTemplateRegistry) {
    if (d.autotune_default) out.push_back(d.tmpl);
  }
  return out;
}

std::string_view name(LoopTemplate t) { return describe(t).name; }

LoopTemplate parse_loop_template(std::string_view s) {
  for (const LoopTemplateDesc& d : kLoopTemplateRegistry) {
    if (s == d.name) return d.tmpl;
  }
  std::string valid;
  for (const LoopTemplateDesc& d : kLoopTemplateRegistry) {
    if (!valid.empty()) valid += ", ";
    valid += d.name;
  }
  throw std::invalid_argument("unknown loop template '" + std::string(s) +
                              "' (valid: " + valid + ")");
}

RunResult run_nested_loop(simt::Device& dev, const NestedLoopWorkload& w,
                          const LoopRun& run) {
  run.params.validate();
  const LoopTemplateDesc& d = describe(run.tmpl);
  if (run.policy.has_value()) {
    simt::Session session = dev.session(*run.policy);
    d.run(dev, w, run.params);
    return RunResult{session.report()};
  }
  d.run(dev, w, run.params);
  return RunResult{};
}

}  // namespace nestpar::nested
