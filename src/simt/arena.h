#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "src/simt/aligned.h"
#include "src/simt/op.h"

namespace nestpar::simt {

/// Allocation-free fast paths for the functional pass: a bump arena for
/// block-local (shared-memory) storage, an open-addressing histogram for
/// atomic hotspot counting, and a structure-of-arrays warp trace that batches
/// lane ops per warp. All three are *reused* across warps, phases, and blocks
/// (see detail::BlockScratch in ctx.h); none of them can influence modeled
/// cycles, because the 128-byte model alignment (host_alloc.h) guarantees the
/// cost model never observes where internal storage lives.

/// Bump allocator over kModelAlignment-aligned chunks. `alloc` returns
/// zero-filled storage aligned to at least 128 bytes, so shared-memory arrays
/// carved from it always start on a full bank cycle — the property the
/// bank-conflict model needs to stay independent of host heap layout.
/// `reset()` rewinds without freeing, making steady-state allocation a
/// pointer bump plus a memset.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (Chunk& c : chunks_) {
      ::operator delete(c.base, std::align_val_t{kModelAlignment});
    }
  }

  /// Zeroed storage for `bytes` bytes, aligned to max(align, 128).
  void* alloc(std::size_t bytes, std::size_t align) {
    if (align < kModelAlignment) align = kModelAlignment;
    for (;;) {
      if (cur_ < chunks_.size()) {
        Chunk& c = chunks_[cur_];
        const auto base = reinterpret_cast<std::uintptr_t>(c.base);
        const std::size_t off =
            ((base + used_ + align - 1) & ~(align - 1)) - base;
        if (off + bytes <= c.cap) {
          used_ = off + bytes;
          char* p = c.base + off;
          std::memset(p, 0, bytes);
          return p;
        }
        // Current chunk exhausted (or too small): move to the next. Chunk
        // capacities are non-decreasing, so a fresh request either fits a
        // later reserved chunk or appends one sized for it.
        ++cur_;
        used_ = 0;
        continue;
      }
      constexpr std::size_t kMinChunk = 96 * 1024;  // > 48KB smem + padding.
      std::size_t cap = bytes + align;
      if (cap < kMinChunk) cap = kMinChunk;
      if (!chunks_.empty() && cap < chunks_.back().cap) {
        cap = chunks_.back().cap;
      }
      chunks_.push_back(Chunk{
          static_cast<char*>(
              ::operator new(cap, std::align_val_t{kModelAlignment})),
          cap});
      cur_ = chunks_.size() - 1;
      used_ = 0;
    }
  }

  /// Rewind to empty; chunk storage is retained for reuse.
  void reset() {
    cur_ = 0;
    used_ = 0;
  }

 private:
  struct Chunk {
    char* base = nullptr;
    std::size_t cap = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;    ///< Index of the chunk being bumped.
  std::size_t used_ = 0;   ///< Bytes consumed in chunks_[cur_].
};

/// Open-addressing histogram: 64-bit key -> 64-bit count. Replaces the
/// std::unordered_map the atomic-hotspot model used per grid — the single
/// hottest path of the pre-SoA engine (one increment per atomic op per lane).
/// Linear probing over a power-of-two table, splitmix64 finalizer as the
/// hash. Only the *maximum* count is ever consumed
/// (KernelNode::hottest_atomic_ops), so the order of bumps is free.
///
/// Key 0 is reserved as the empty-slot sentinel; real keys are atomic-unit
/// indices (address / atomic_segment_bytes) of heap addresses and are never
/// zero, but a dedicated counter keeps the container total just in case.
///
/// The table is recycled across grids, so every whole-table operation —
/// max_count, clear, grow — walks a log of occupied slot indices
/// instead of the table: O(entries used), never O(capacity). A histogram
/// that once grew large costs nothing extra on later small grids.
class FlatHist {
 public:
  FlatHist() = default;
  FlatHist(const FlatHist&) = delete;
  FlatHist& operator=(const FlatHist&) = delete;
  ~FlatHist() {
    delete[] slots_;
    delete[] used_;
  }

  /// Increment the count of `key` by one.
  void bump(std::uint64_t key) {
    if (key == 0) {
      ++zero_count_;
      return;
    }
    if (size_ * 4 >= cap_ * 3) grow();
    std::uint64_t i = mix(key) & (cap_ - 1);
    while (slots_[i].key != 0) {
      if (slots_[i].key == key) {
        ++slots_[i].count;
        return;
      }
      i = (i + 1) & (cap_ - 1);
    }
    slots_[i] = Slot{key, 1};
    used_[size_++] = static_cast<std::uint32_t>(i);
  }

  /// Largest count over all keys (0 when empty) — the hotspot-serialization
  /// input of the timing model.
  std::uint64_t max_count() const {
    std::uint64_t m = zero_count_;
    for (std::uint64_t k = 0; k < size_; ++k) {
      m = std::max(m, slots_[used_[k]].count);
    }
    return m;
  }

  bool empty() const { return size_ == 0 && zero_count_ == 0; }

  /// Forget all entries in O(entries used); table storage is retained.
  void clear() {
    for (std::uint64_t k = 0; k < size_; ++k) slots_[used_[k]].key = 0;
    size_ = 0;
    zero_count_ = 0;
  }

 private:
  /// Key and count share one 16-byte slot so a probe touches a single cache
  /// line instead of one in a keys array plus one in a counts array — atomic
  /// histograms on large graphs are bumped once per atomic op with an
  /// essentially random key, so the second miss was pure overhead.
  struct Slot {
    std::uint64_t key;    ///< 0 = empty slot.
    std::uint64_t count;  ///< Valid where key != 0.
  };

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void grow() {
    const std::uint64_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    auto* ns = new Slot[ncap]();
    // The load limit (3/4) bounds the log: size_ < ncap * 3 / 4 always.
    auto* nu = new std::uint32_t[ncap / 4 * 3];
    for (std::uint64_t k = 0; k < size_; ++k) {
      const Slot& s = slots_[used_[k]];
      std::uint64_t j = mix(s.key) & (ncap - 1);
      while (ns[j].key != 0) j = (j + 1) & (ncap - 1);
      ns[j] = s;
      nu[k] = static_cast<std::uint32_t>(j);
    }
    delete[] slots_;
    delete[] used_;
    slots_ = ns;
    used_ = nu;
    cap_ = ncap;
  }

  Slot* slots_ = nullptr;
  std::uint32_t* used_ = nullptr;  ///< Occupied slot indices, size_ of them.
  std::uint64_t cap_ = 0;  ///< Power of two (or 0 before first use).
  std::uint64_t size_ = 0;
  std::uint64_t zero_count_ = 0;
};

/// Open-addressing map: 64-bit key -> 32-bit value. Replaces the
/// std::unordered_maps the recorder used for stream interning and stream
/// tails — one probe per device-launched child grid is hot under
/// launch-storm templates (dpar-naive). Linear probing over a power-of-two
/// table, splitmix-style multiply as the hash. Values are dense ids assigned
/// in first-insertion order by the caller, so the map implementation cannot
/// influence them (determinism contract, see docs/SIMULATOR.md).
///
/// Keys are stored biased by +1 so 0 can serve as the empty sentinel; the
/// one unrepresentable key (~0ull) never occurs (stream keys carry a tag or
/// a +1-biased slot in their low bits).
class FlatIdMap {
 public:
  FlatIdMap() = default;
  FlatIdMap(const FlatIdMap&) = delete;
  FlatIdMap& operator=(const FlatIdMap&) = delete;
  ~FlatIdMap() {
    delete[] keys_;
    delete[] vals_;
  }

  /// Pointer to the value slot for `key`, or nullptr when absent.
  std::uint32_t* find(std::uint64_t key) {
    if (cap_ == 0) return nullptr;
    const std::uint64_t biased = key + 1;
    std::uint64_t i = mix(biased) & (cap_ - 1);
    while (keys_[i] != 0) {
      if (keys_[i] == biased) return &vals_[i];
      i = (i + 1) & (cap_ - 1);
    }
    return nullptr;
  }

  /// The value slot for `key`, inserting `init` when absent. `inserted`
  /// reports which happened.
  std::uint32_t& get_or_insert(std::uint64_t key, std::uint32_t init,
                               bool& inserted) {
    if (size_ * 4 >= cap_ * 3) grow();
    const std::uint64_t biased = key + 1;
    std::uint64_t i = mix(biased) & (cap_ - 1);
    while (keys_[i] != 0) {
      if (keys_[i] == biased) {
        inserted = false;
        return vals_[i];
      }
      i = (i + 1) & (cap_ - 1);
    }
    keys_[i] = biased;
    vals_[i] = init;
    ++size_;
    inserted = true;
    return vals_[i];
  }

  /// Insert-or-assign (stream tails are overwritten on every host launch).
  void put(std::uint64_t key, std::uint32_t value) {
    bool inserted = false;
    get_or_insert(key, value, inserted) = value;
  }

  /// Forget all entries; table storage is retained for reuse.
  void clear() {
    if (keys_ != nullptr) std::memset(keys_, 0, cap_ * sizeof(std::uint64_t));
    size_ = 0;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void grow() {
    const std::uint64_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    auto* nk = new std::uint64_t[ncap]();
    auto* nv = new std::uint32_t[ncap];
    for (std::uint64_t i = 0; i < cap_; ++i) {
      if (keys_[i] == 0) continue;
      std::uint64_t j = mix(keys_[i]) & (ncap - 1);
      while (nk[j] != 0) j = (j + 1) & (ncap - 1);
      nk[j] = keys_[i];
      nv[j] = vals_[i];
    }
    delete[] keys_;
    delete[] vals_;
    keys_ = nk;
    vals_ = nv;
    cap_ = ncap;
  }

  std::uint64_t* keys_ = nullptr;  ///< 0 = empty slot; stored key+1.
  std::uint32_t* vals_ = nullptr;  ///< Valid where keys_[i] != 0.
  std::uint64_t cap_ = 0;          ///< Power of two (or 0 before first use).
  std::uint64_t size_ = 0;
};

/// Structure-of-arrays op trace for one warp. The functional pass runs the
/// lanes of a warp sequentially, so each lane's ops land contiguously in four
/// parallel columns (kind / count / bytes / addr) separated by recorded lane
/// offsets — one growable buffer per warp instead of 32 per-lane
/// std::vector<Op>s. The warp reducer walks the columns step-major; the
/// branchy AoS `Op` load of the old layout becomes a one-byte kind fetch with
/// the operand columns touched only by the branch that needs them.
///
/// Ownership/lifetime: a WarpTrace lives inside a detail::BlockScratch and is
/// recycled for every warp of every phase of every block a host thread runs
/// at a given nesting depth. Its contents are only valid between
/// `begin_warp()` and the `reduce_warp` call that reduces them; nothing
/// downstream retains pointers into the columns.
class WarpTrace {
 public:
  WarpTrace() = default;
  WarpTrace(const WarpTrace&) = delete;
  WarpTrace& operator=(const WarpTrace&) = delete;
  ~WarpTrace() {
    ::operator delete(storage_, std::align_val_t{kModelAlignment});
  }

  /// Start recording a new warp (drops previous contents, keeps capacity).
  void begin_warp() {
    size_ = 0;
    lanes_ = 0;
  }

  /// Mark the start of the next lane's ops. Lanes are recorded in ascending
  /// lane order — reduce_warp and the launch-record ordering rely on it.
  void begin_lane() { lane_begin_[lanes_++] = size_; }

  /// Append one op for the current lane (writes all four columns).
  void push(OpKind kind, std::uint32_t count, std::uint32_t bytes,
            std::uint64_t addr) {
    if (size_ == cap_) grow();
    kind_[size_] = static_cast<std::uint8_t>(kind);
    count_[size_] = count;
    bytes_[size_] = bytes;
    addr_[size_] = addr;
    ++size_;
  }

  /// Specialized appends that write only the columns the reducer's arm for
  /// that kind ever loads (kCompute/kStall: count; global loads/stores:
  /// bytes+addr; shared/atomic/launch ops: addr). The untouched columns keep
  /// stale bytes at those indices — reduce_warp is the trace's only reader
  /// and never dereferences a column its op kind doesn't use. Recording is
  /// one store per op hotter than combining, so the skipped columns are a
  /// measurable share of functional-pass memory traffic.
  void push_count(OpKind kind, std::uint32_t count) {
    if (size_ == cap_) grow();
    kind_[size_] = static_cast<std::uint8_t>(kind);
    count_[size_] = count;
    ++size_;
  }
  void push_mem(OpKind kind, std::uint32_t bytes, std::uint64_t addr) {
    if (size_ == cap_) grow();
    kind_[size_] = static_cast<std::uint8_t>(kind);
    bytes_[size_] = bytes;
    addr_[size_] = addr;
    ++size_;
  }
  void push_addr(OpKind kind, std::uint64_t addr) {
    if (size_ == cap_) grow();
    kind_[size_] = static_cast<std::uint8_t>(kind);
    addr_[size_] = addr;
    ++size_;
  }

  int lanes() const { return lanes_; }
  std::uint32_t size() const { return size_; }
  std::uint32_t lane_begin(int l) const { return lane_begin_[l]; }
  std::uint32_t lane_end(int l) const {
    return l + 1 < lanes_ ? lane_begin_[l + 1] : size_;
  }

  const std::uint8_t* kinds() const { return kind_; }
  const std::uint32_t* counts() const { return count_; }
  const std::uint32_t* bytes() const { return bytes_; }
  const std::uint64_t* addrs() const { return addr_; }

 private:
  void grow() {
    const std::uint32_t ncap = cap_ == 0 ? 1024 : cap_ * 2;
    // One allocation, four columns; widest first so each column stays
    // naturally aligned.
    const std::size_t bytes_needed =
        static_cast<std::size_t>(ncap) * (8 + 4 + 4 + 1);
    char* ns = static_cast<char*>(
        ::operator new(bytes_needed, std::align_val_t{kModelAlignment}));
    auto* na = reinterpret_cast<std::uint64_t*>(ns);
    auto* nc = reinterpret_cast<std::uint32_t*>(ns + std::size_t{ncap} * 8);
    auto* nb = reinterpret_cast<std::uint32_t*>(ns + std::size_t{ncap} * 12);
    auto* nk = reinterpret_cast<std::uint8_t*>(ns + std::size_t{ncap} * 16);
    if (size_ > 0) {
      std::memcpy(na, addr_, size_ * sizeof(std::uint64_t));
      std::memcpy(nc, count_, size_ * sizeof(std::uint32_t));
      std::memcpy(nb, bytes_, size_ * sizeof(std::uint32_t));
      std::memcpy(nk, kind_, size_ * sizeof(std::uint8_t));
    }
    ::operator delete(storage_, std::align_val_t{kModelAlignment});
    storage_ = ns;
    addr_ = na;
    count_ = nc;
    bytes_ = nb;
    kind_ = nk;
    cap_ = ncap;
  }

  char* storage_ = nullptr;
  std::uint64_t* addr_ = nullptr;
  std::uint32_t* count_ = nullptr;
  std::uint32_t* bytes_ = nullptr;
  std::uint8_t* kind_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  std::uint32_t lane_begin_[32] = {};
  int lanes_ = 0;
};

}  // namespace nestpar::simt
