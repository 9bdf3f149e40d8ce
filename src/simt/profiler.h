#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/simt/critpath.h"
#include "src/simt/launch_graph.h"
#include "src/simt/metrics.h"
#include "src/simt/scheduler.h"

namespace nestpar::simt {

/// Number of histogram slots in an active-lane histogram: one per possible
/// active-lane count of a 32-wide warp, plus the (unused) zero slot.
inline constexpr int kLaneHistSlots = 33;

/// Log2-bucketed value distribution used for every profiled quantity whose
/// *spread* matters (per-block cycles, child grid sizes, buffer occupancy).
/// Bucket 0 holds values < 1; bucket b >= 1 holds values in [2^(b-1), 2^b).
struct ProfHistogram {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  std::uint64_t buckets[kBuckets] = {};

  /// Bucket index for `v` (clamped; negative values land in bucket 0).
  static int bucket_of(double v);

  void add(double v);
  double mean() const { return count == 0 ? 0.0 : sum / count; }
  ProfHistogram& operator+=(const ProfHistogram& o);
};

/// Distribution profile of one kernel name, accumulated over every observed
/// invocation. This is the paper's skew data: not just how many cycles a
/// kernel cost, but how unevenly its blocks shared them.
struct KernelProfile {
  std::string name;
  std::uint64_t invocations = 0;
  double busy_cycles = 0.0;  ///< Sum of scheduled (end - start) per grid.

  /// Per-block issue-cycle distribution — the load-imbalance signal.
  ProfHistogram block_cycles;
  /// Per-launch imbalance accumulators: the sum over launches of the
  /// slowest block's cycles (what the grid actually waits for) and of the
  /// mean block cycles (what a perfectly balanced grid would wait for).
  /// Keeping the per-launch structure matters: folding all blocks of all
  /// launches into one histogram would let iteration-to-iteration frontier
  /// variation (large early SSSP waves, tiny late ones) drown out the
  /// within-grid skew the LB templates actually remove.
  double launch_max_cycles = 0.0;
  double launch_mean_cycles = 0.0;
  /// Grid sizes of device-side (CDP) invocations of this kernel: the
  /// child-grid-size profile of the dpar/recursive templates.
  ProfHistogram child_grid_blocks;

  /// Active-lane histogram over issued warp-instruction groups (slot n =
  /// groups with n active lanes), summed from the kernel's Metrics.
  std::uint64_t lane_hist[kLaneHistSlots] = {};
  std::uint64_t warp_steps = 0;
  std::uint64_t active_lane_ops = 0;

  /// Grids observed at each nesting depth.
  std::map<std::uint32_t, std::uint64_t> nest_depth_grids;

  /// Fault/retry/degradation activity attributed to this kernel's launches.
  RobustnessCounters robustness;

  /// Load-imbalance factor: actual busy time over ideally balanced time,
  /// i.e. sum of per-launch max block cycles / sum of per-launch mean block
  /// cycles (1.0 = perfectly balanced; the paper's motivation metric for
  /// the LB templates).
  double imbalance() const {
    return launch_mean_cycles <= 0.0 ? 0.0
                                     : launch_max_cycles / launch_mean_cycles;
  }
  double warp_efficiency() const {
    return warp_steps == 0 ? 0.0
                           : static_cast<double>(active_lane_ops) /
                                 (32.0 * static_cast<double>(warp_steps));
  }
};

/// One named counter sample recorded by a template (queue split sizes,
/// autoropes split level, ...). `node` is the launch-graph watermark at
/// record time — the number of grids already launched — which the trace
/// exporter resolves to a timestamp.
struct CounterSample {
  std::string track;
  double value = 0.0;
  std::uint64_t node = 0;
};

/// One instant event (queue flush, phase transition) with the same
/// launch-graph watermark attribution as CounterSample.
struct InstantSample {
  std::string name;
  std::string cat;
  std::uint64_t node = 0;
};

/// One profile: everything recorded while it was the active profile (see
/// ProfileScope). A plain value type with a single owner — the bench driver
/// holds one per suite and serializes it as PROF_<suite>.json (see
/// bench/results.h); nothing about it is process-wide.
///
/// Each `Session::report()` folds its timed session into the active profile
/// and templates add counters through `Device::prof_*`. With no active profile
/// every hook is a no-op, so a profile-off run performs no profiling
/// allocations and produces byte-identical output. Call sites that build
/// track names must gate on `active_profile()` themselves to keep that path
/// allocation-free.
struct Profile {
  std::vector<KernelProfile> kernels;  ///< Sorted by kernel name.
  /// Named value distributions (counter tracks aggregate here too).
  std::map<std::string, ProfHistogram> tracks;
  std::vector<CounterSample> counters;  ///< Time-series counter samples.
  std::vector<InstantSample> instants;
  double total_cycles = 0.0;    ///< Sum of observed reports' makespans.
  std::uint64_t reports = 0;    ///< Session::report() calls observed.
  std::uint64_t grids = 0;
  std::uint64_t device_grids = 0;
  std::map<std::uint32_t, std::uint64_t> depth_grids;

  // Critical-path accumulation (critpath.h). Attributions add across
  // reports, so `crit_total.total() == total_cycles` — the per-report
  // invariant survives aggregation.
  CritAttribution crit_total;
  /// Critical-path cycles by the kernel name they were attributed to.
  std::map<std::string, CritAttribution> crit_kernels;
  /// Folded flamegraph stacks merged across reports.
  std::map<std::string, double> crit_folded;
  /// Binding chain of the longest-makespan report observed (the session that
  /// dominates the suite), and that report's makespan.
  std::vector<CritSegment> crit_chain;
  double crit_chain_makespan = 0.0;

  /// Kernel profile by exact name; nullptr when absent.
  const KernelProfile* find(std::string_view name) const;

  /// Record a counter sample (time series + aggregate distribution).
  void counter(std::string_view track, double value, std::uint64_t node);
  /// Record a value into a named distribution only (no time series) — for
  /// per-block quantities where the spread is the signal.
  void value(std::string_view track, double v);
  /// Record an instant event.
  void instant(std::string_view name, std::string_view cat,
               std::uint64_t node);

  /// Fold one timed session into the per-kernel profiles. Called by
  /// Session::report() on the active profile; each call observes the whole
  /// graph of that session. `crit` is the session's critical-path
  /// decomposition (computed once by the caller, shared with RunReport).
  void observe_report(const LaunchGraph& graph, const ScheduleResult& sched,
                      const CritPath& crit);
};

/// The calling thread's active profile, or nullptr when none is (profiling
/// off, the default).
Profile* active_profile();

/// Makes `profile` the calling thread's active profile for the scope's
/// lifetime and reinstates the previous one (usually none) on exit. Scopes
/// nest; each thread has its own, so sessions on different threads profile
/// into different profiles without sharing or locking anything.
class ProfileScope {
 public:
  explicit ProfileScope(Profile& profile);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profile* previous_;
};

}  // namespace nestpar::simt
