#include "src/sort/sort.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

namespace nestpar::sort {

namespace {

using simt::BlockCtx;
using simt::Device;
using simt::Kernel;
using simt::LaneCtx;
using simt::LaunchConfig;

/// Charge the cost of a block-local bitonic sort of `m` elements (log^2
/// compare-exchange passes, threads striding the array).
void charge_bitonic(BlockCtx& blk, int m) {
  const int levels = std::bit_width(static_cast<unsigned>(std::max(2, m))) - 1;
  const int passes = levels * (levels + 1) / 2;
  blk.each_thread([&](LaneCtx& t) {
    const int per_thread = (m + blk.block_dim() - 1) / blk.block_dim();
    for (int p = 0; p < passes; ++p) {
      for (int k = 0; k < per_thread; ++k) {
        t.compute(2);
        // Compare-exchange in shared memory (addresses synthetic but
        // bank-spread, which is what a real bitonic network achieves).
        t.compute(2);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// MergeSort (flat)
// ---------------------------------------------------------------------------

/// Stable co-rank: number of elements of run A merged before output rank k.
/// Charges one load per binary-search probe.
std::size_t co_rank(LaneCtx& t, std::size_t k, const int* a, std::size_t na,
                    const int* b, std::size_t nb) {
  std::size_t lo = k > nb ? k - nb : 0;
  std::size_t hi = std::min(k, na);
  while (lo < hi) {
    const std::size_t i = (lo + hi) / 2;  // elements taken from A
    const std::size_t j = k - i - 1;      // index into B of the rival
    t.compute(2);
    if (j < nb && t.ld(&a[i]) > t.ld(&b[j])) {
      hi = i;
    } else {
      lo = i + 1;
    }
  }
  return lo;
}

}  // namespace

void mergesort(Device& dev, std::span<int> data, const MergeSortOptions& opt) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if (opt.tile < 2 || (opt.tile & (opt.tile - 1)) != 0) {
    throw std::invalid_argument("mergesort: tile must be a power of two >= 2");
  }

  // Phase 1: block-local tile sort (shared memory, bitonic cost model).
  const std::size_t tiles = (n + opt.tile - 1) / opt.tile;
  {
    LaunchConfig cfg;
    cfg.grid_blocks = static_cast<int>(std::min<std::size_t>(tiles, 65535));
    cfg.block_threads = opt.block_threads;
    cfg.smem_bytes = static_cast<std::size_t>(opt.tile) * sizeof(int);
    cfg.name = "mergesort/tile-sort";
    int* raw = data.data();
    dev.launch(cfg, [raw, n, tiles, &opt](BlockCtx& blk) {
      for (std::size_t tile = blk.block_idx(); tile < tiles;
           tile += static_cast<std::size_t>(blk.grid_dim())) {
        const std::size_t start = tile * opt.tile;
        const std::size_t len = std::min<std::size_t>(opt.tile, n - start);
        auto sh = blk.shared_array<int>(static_cast<std::size_t>(opt.tile));
        blk.each_thread([&](LaneCtx& t) {
          for (std::size_t k = static_cast<std::size_t>(t.thread_idx());
               k < len; k += static_cast<std::size_t>(t.block_dim())) {
            t.sh_st(&sh[k], t.ld(&raw[start + k]));
          }
        });
        charge_bitonic(blk, static_cast<int>(len));
        std::sort(sh.begin(), sh.begin() + static_cast<std::ptrdiff_t>(len));
        blk.each_thread([&](LaneCtx& t) {
          for (std::size_t k = static_cast<std::size_t>(t.thread_idx());
               k < len; k += static_cast<std::size_t>(t.block_dim())) {
            t.st(&raw[start + k], t.sh_ld(&sh[k]));
          }
        });
      }
    });
  }

  // Phase 2: log(n/tile) thread-mapped merge passes; every thread produces
  // `segment` output elements located via co-rank search, so the merge stays
  // fully parallel even when runs are long. For small arrays the segment
  // shrinks so the grid still fills the device.
  std::vector<int> aux(n);
  int* src = data.data();
  int* dst = aux.data();
  // Power of two so a segment never straddles a merge-pair boundary.
  const std::size_t seg = std::bit_floor(std::clamp<std::size_t>(
      n / 8192, 32, static_cast<std::size_t>(opt.segment)));
  for (std::size_t width = static_cast<std::size_t>(opt.tile); width < n;
       width *= 2) {
    const std::size_t segments = (n + seg - 1) / seg;
    LaunchConfig cfg;
    cfg.block_threads = opt.block_threads;
    cfg.grid_blocks = Device::blocks_for(static_cast<std::int64_t>(segments),
                                         opt.block_threads, 65535);
    cfg.name = "mergesort/merge";
    dev.launch_threads(cfg, [src, dst, n, width, seg, segments](LaneCtx& t) {
      for (std::size_t s = static_cast<std::size_t>(t.global_idx());
           s < segments; s += static_cast<std::size_t>(t.grid_threads())) {
        const std::size_t o0 = s * seg;
        const std::size_t o1 = std::min(n, o0 + seg);
        const std::size_t base = (o0 / (2 * width)) * (2 * width);
        const int* a = src + base;
        const std::size_t na = std::min(width, n - base);
        const int* b = src + base + na;
        const std::size_t nb =
            base + na >= n ? 0 : std::min(width, n - base - na);
        std::size_t k = o0 - base;
        std::size_t i = co_rank(t, k, a, na, b, nb);
        std::size_t j = k - i;
        for (std::size_t o = o0; o < o1; ++o) {
          int v;
          t.compute(1);
          if (j >= nb || (i < na && t.ld(&a[i]) <= t.ld(&b[j]))) {
            v = a[i++];
          } else {
            v = b[j++];
          }
          t.st(&dst[o], v);
        }
      }
    });
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::copy(aux.begin(), aux.end(), data.begin());
  }
}

// ---------------------------------------------------------------------------
// Simple QuickSort (CDP, <<<1,1>>> kernels)
// ---------------------------------------------------------------------------

namespace {

struct QsCtx {
  int* data;
  QuickSortOptions opt;
};

/// Charged single-thread selection sort of data[lo..hi]. The quadratic scan
/// cost is charged in aggregate per outer iteration (one ranged load + a
/// counted compute op) so the recorded trace stays linear in `len` — the
/// modeled cycles are the same O(len^2) a per-element trace would give.
void selection_sort(LaneCtx& t, int* d, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t i = lo; i <= hi; ++i) {
    const auto remaining = static_cast<std::uint32_t>(hi - i + 1);
    t.charge_load(&d[i], remaining * static_cast<std::uint32_t>(sizeof(int)));
    t.compute(2 * remaining);
    t.st(&d[i], d[i]);
  }
  std::sort(d + lo, d + hi + 1);
}

/// Charged serial Hoare partition of d[i..j] around its middle element by
/// one lane. On return d[lo..j] <= pivot <= d[i..hi] for the original bounds.
void hoare_partition(LaneCtx& t, int* d, std::int64_t& i, std::int64_t& j) {
  const int pivot = t.ld(&d[(i + j) / 2]);
  while (i <= j) {
    while (t.compute(1), t.ld(&d[i]) < pivot) ++i;
    while (t.compute(1), t.ld(&d[j]) > pivot) --j;
    if (i <= j) {
      const int a = d[i], b = d[j];
      t.st(&d[i], b);
      t.st(&d[j], a);
      ++i;
      --j;
    }
  }
}

/// Degraded path shared by both CDP quicksorts: the lane whose nested launch
/// was refused sorts d[lo..hi] itself with an explicit-stack quicksort (the
/// same Hoare partition, selection sort at or below `leaf_threshold`), so a
/// refusal costs time, never order.
void stack_quicksort(LaneCtx& t, int* d, std::int64_t lo, std::int64_t hi,
                     int leaf_threshold) {
  std::vector<std::pair<std::int64_t, std::int64_t>> stack{{lo, hi}};
  while (!stack.empty()) {
    const auto [l, h] = stack.back();
    stack.pop_back();
    if (h - l + 1 <= leaf_threshold) {
      selection_sort(t, d, l, h);
      continue;
    }
    std::int64_t i = l, j = h;
    hoare_partition(t, d, i, j);
    if (l < j) stack.emplace_back(l, j);
    if (i < h) stack.emplace_back(i, h);
  }
}

/// Nested launch of `k`, which sorts d[lo..hi]; if the device refuses it
/// (after retries), the launching lane sorts the range in place instead.
void launch_or_sort(LaneCtx& t, const LaunchConfig& cc, Kernel k, int slot,
                    int* d, std::int64_t lo, std::int64_t hi,
                    int leaf_threshold) {
  if (t.launch(cc, std::move(k), slot)) return;
  t.note_degraded();
  stack_quicksort(t, d, lo, hi, leaf_threshold);
}

Kernel make_simple_qs_kernel(std::shared_ptr<const QsCtx> ctx, std::int64_t lo,
                             std::int64_t hi, int depth);

Kernel make_simple_qs_kernel(std::shared_ptr<const QsCtx> ctx, std::int64_t lo,
                             std::int64_t hi, int depth) {
  return simt::as_kernel([ctx, lo, hi, depth](LaneCtx& t) {
    int* d = ctx->data;
    const std::int64_t len = hi - lo + 1;
    if (depth >= ctx->opt.max_depth || len <= ctx->opt.leaf_threshold) {
      selection_sort(t, d, lo, hi);
      return;
    }
    // Serial Hoare partition by the kernel's single thread.
    std::int64_t i = lo, j = hi;
    hoare_partition(t, d, i, j);
    LaunchConfig cc;
    cc.grid_blocks = 1;
    cc.block_threads = 1;
    cc.name = "simple-qs";
    const int leaf = ctx->opt.leaf_threshold;
    if (lo < j) {
      launch_or_sort(t, cc, make_simple_qs_kernel(ctx, lo, j, depth + 1), -1,
                     d, lo, j, leaf);
    }
    if (i < hi) {
      launch_or_sort(t, cc, make_simple_qs_kernel(ctx, i, hi, depth + 1), -1,
                     d, i, hi, leaf);
    }
  });
}

}  // namespace

void simple_quicksort(Device& dev, std::span<int> data,
                      const QuickSortOptions& opt) {
  if (data.size() <= 1) return;
  auto ctx = std::make_shared<QsCtx>(QsCtx{data.data(), opt});
  LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 1;
  cfg.name = "simple-qs";
  dev.launch(cfg, make_simple_qs_kernel(
                      ctx, 0, static_cast<std::int64_t>(data.size()) - 1, 0));
}

// ---------------------------------------------------------------------------
// Advanced QuickSort (CDP, block-parallel partition + bitonic leaves)
// ---------------------------------------------------------------------------

namespace {

struct AqsCtx {
  int* data;
  int* aux;
  QuickSortOptions opt;
};

Kernel make_advanced_qs_kernel(std::shared_ptr<const AqsCtx> ctx,
                               std::int64_t lo, std::int64_t hi, int depth);

Kernel make_advanced_qs_kernel(std::shared_ptr<const AqsCtx> ctx,
                               std::int64_t lo, std::int64_t hi, int depth) {
  return [ctx, lo, hi, depth](BlockCtx& blk) {
    int* d = ctx->data;
    const std::int64_t len = hi - lo + 1;
    if (depth >= ctx->opt.max_depth ||
        len <= static_cast<std::int64_t>(ctx->opt.bitonic_size)) {
      // Leaf: block-local bitonic sort (charged), executed via std::sort.
      charge_bitonic(blk, static_cast<int>(
                              std::min<std::int64_t>(len, 8192)));
      blk.each_thread([&](LaneCtx& t) {
        for (std::int64_t k = lo + t.thread_idx(); k <= hi;
             k += blk.block_dim()) {
          t.ld(&d[k]);
          t.st(&d[k], d[k]);
        }
      });
      std::sort(d + lo, d + hi + 1);
      return;
    }

    // Block-parallel three-way partition through the aux buffer.
    auto counts = blk.shared_array<std::int64_t>(2);  // [less, greater]
    const int a = d[lo], b = d[(lo + hi) / 2], c = d[hi];
    const int pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
    int* aux = ctx->aux;
    blk.each_thread([&](LaneCtx& t) {
      // Median-of-three pivot loads.
      if (t.thread_idx() == 0) {
        t.ld(&d[lo]);
        t.ld(&d[(lo + hi) / 2]);
        t.ld(&d[hi]);
      }
      for (std::int64_t k = lo + t.thread_idx(); k <= hi;
           k += blk.block_dim()) {
        const int x = t.ld(&d[k]);
        t.compute(1);
        if (x < pivot) {
          const std::int64_t idx = t.sh_atomic_add(&counts[0], std::int64_t{1});
          t.st(&aux[lo + idx], x);
        } else if (x > pivot) {
          const std::int64_t idx = t.sh_atomic_add(&counts[1], std::int64_t{1});
          t.st(&aux[hi - idx], x);
        }
      }
    });
    const std::int64_t less = counts[0];
    const std::int64_t greater = counts[1];
    blk.each_thread([&](LaneCtx& t) {
      // Copy partitions back; the middle is filled with the pivot value.
      for (std::int64_t k = t.thread_idx(); k < len; k += blk.block_dim()) {
        const std::int64_t p = lo + k;
        int v;
        if (k < less) {
          v = t.ld(&aux[p]);
        } else if (p > hi - greater) {
          v = t.ld(&aux[p]);
        } else {
          v = pivot;
        }
        t.st(&d[p], v);
      }
    });
    blk.each_thread([&](LaneCtx& t) {
      if (t.thread_idx() != 0) return;
      LaunchConfig cc;
      cc.block_threads = ctx->opt.block_threads;
      cc.grid_blocks = 1;
      cc.name = "advanced-qs";
      const int leaf = ctx->opt.leaf_threshold;
      if (less > 1) {
        const std::int64_t end = lo + less - 1;
        launch_or_sort(t, cc, make_advanced_qs_kernel(ctx, lo, end, depth + 1),
                       -1, d, lo, end, leaf);
      }
      if (greater > 1) {
        const std::int64_t begin = hi - greater + 1;
        launch_or_sort(t, cc,
                       make_advanced_qs_kernel(ctx, begin, hi, depth + 1), 0,
                       d, begin, hi, leaf);
      }
    });
  };
}

}  // namespace

void advanced_quicksort(Device& dev, std::span<int> data,
                        const QuickSortOptions& opt) {
  if (data.size() <= 1) return;
  auto aux = std::make_shared<std::vector<int>>(data.size());
  auto ctx = std::make_shared<AqsCtx>(AqsCtx{data.data(), aux->data(), opt});
  // Keep the aux buffer alive for the duration of the eager execution.
  LaunchConfig cfg;
  cfg.block_threads = opt.block_threads;
  cfg.grid_blocks = 1;
  cfg.name = "advanced-qs";
  Kernel k = make_advanced_qs_kernel(
      ctx, 0, static_cast<std::int64_t>(data.size()) - 1, 0);
  dev.launch(cfg, [k = std::move(k), aux](BlockCtx& blk) { k(blk); });
}

std::vector<int> make_keys(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> keys(n);
  for (auto& k : keys) {
    k = static_cast<int>(rng() & 0x7fffffff);
  }
  return keys;
}

}  // namespace nestpar::sort
