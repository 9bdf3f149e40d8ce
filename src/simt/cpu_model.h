#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace nestpar::simt {

/// Cost parameters for the serial-CPU baseline model (Xeon E5-2620 class).
struct CpuSpec {
  double clock_ghz = 2.0;
  double compute_op_cycles = 1.0;
  double cache_hit_cycles = 3.0;    ///< Load/store hitting the modeled cache.
  double cache_miss_cycles = 150.0; ///< Scattered (unpredicted) miss.
  /// Miss on a sequentially advancing stream: the hardware prefetcher hides
  /// most of the latency (this is what makes streaming codes like SpMV far
  /// friendlier to the CPU than pointer-chasing graph codes).
  double prefetched_miss_cycles = 8.0;
  int prefetch_streams = 16;        ///< Tracked sequential streams.
  double call_overhead_cycles = 6.0;///< Function-call overhead (recursion).
  std::size_t cache_bytes = 256 * 1024;  ///< Per-core L2 (scattered graph
                                         ///< access thrashes the shared L3).
  int cache_line_bytes = 64;
  int cache_ways = 8;

  double cycles_to_us(double cycles) const { return cycles / (clock_ghz * 1e3); }
};

/// Tiny set-associative LRU cache used to distinguish streaming from
/// scattered access patterns in the CPU baseline (the paper's CPU codes are
/// cache-sensitive tree/graph traversals).
class CacheSim {
 public:
  CacheSim(std::size_t bytes, int line_bytes, int ways);

  /// Touch `addr`; returns true on hit. Inserts on miss (LRU eviction).
  bool access(std::uint64_t addr);

  void clear();

 private:
  int line_shift_;
  std::size_t num_sets_;
  int ways_;
  std::vector<std::uint64_t> tags_;    ///< num_sets_ x ways_, 0 = empty.
  std::vector<std::uint64_t> stamps_;  ///< LRU timestamps.
  std::uint64_t clock_ = 0;
};

/// Charge-as-you-go timer for serial CPU reference implementations. The same
/// reference code that validates GPU results also produces the CPU-side of
/// every GPU-vs-CPU speedup the paper reports.
class CpuTimer {
 public:
  explicit CpuTimer(CpuSpec spec = CpuSpec{});

  void compute(std::uint64_t n = 1) {
    cycles_ += static_cast<double>(n) * spec_.compute_op_cycles;
  }

  template <class T>
  T ld(const T* p) {
    touch(reinterpret_cast<std::uint64_t>(p));
    return *p;
  }
  template <class T>
    requires(!std::is_pointer_v<T>)
  T ld(const T& r) {
    return ld(&r);
  }
  template <class T>
  void st(T* p, T v) {
    touch(reinterpret_cast<std::uint64_t>(p));
    *p = v;
  }

  /// Charge one function call (used by recursive references).
  void call() { cycles_ += spec_.call_overhead_cycles; }

  double cycles() const { return cycles_; }
  double us() const { return spec_.cycles_to_us(cycles_); }
  const CpuSpec& spec() const { return spec_; }
  /// Test oracle: the cache model's access count, which its tests check.
  std::uint64_t loads_and_stores() const { return accesses_; }
  /// Test oracle: the cache model's miss count, which its tests check.
  std::uint64_t cache_misses() const { return misses_; }

  void reset();

 private:
  void touch(std::uint64_t addr) {
    ++accesses_;
    if (cache_.access(addr)) {
      cycles_ += spec_.cache_hit_cycles;
    } else {
      ++misses_;
      cycles_ += prefetched(addr >> 6) ? spec_.prefetched_miss_cycles
                                       : spec_.cache_miss_cycles;
    }
  }

  /// True if `line` continues one of the recently-seen miss streams; updates
  /// the stream table either way (round-robin replacement).
  bool prefetched(std::uint64_t line);

  CpuSpec spec_;
  CacheSim cache_;
  std::vector<std::uint64_t> streams_;
  std::size_t stream_cursor_ = 0;
  double cycles_ = 0.0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nestpar::simt
