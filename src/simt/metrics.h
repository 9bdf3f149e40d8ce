#pragma once

#include <cstdint>
#include <string>

namespace nestpar::simt {

/// Device-runtime robustness counters: launch refusals, injected faults,
/// retries, and template degradations. All zero in a fault-free run with
/// unlimited ResourceLimits (except `launches_attempted`, which always
/// counts device-launch attempts) — report printers gate on `any_fault()`
/// so default output is byte-identical to the pre-fault-model build.
struct RobustnessCounters {
  std::uint64_t launches_attempted = 0;  ///< Device-launch attempts.
  std::uint64_t refused_pool = 0;        ///< kPendingPoolExhausted refusals.
  std::uint64_t refused_depth = 0;       ///< kDepthLimitExceeded refusals.
  std::uint64_t refused_heap = 0;        ///< kDeviceHeapExhausted refusals.
  std::uint64_t faults_injected = 0;     ///< kInjectedFault failures.
  std::uint64_t retries = 0;             ///< Backoff retries after faults.
  std::uint64_t degraded = 0;            ///< Template degradation fallbacks.

  std::uint64_t refused_total() const {
    return refused_pool + refused_depth + refused_heap + faults_injected;
  }
  /// True when anything actually went wrong (refusal, fault, retry, or
  /// degradation) — the gate for fault-related report output.
  bool any_fault() const { return refused_total() + retries + degraded > 0; }

  RobustnessCounters& operator+=(const RobustnessCounters& o);

  /// Compact single-line JSON object with every raw counter, e.g.
  /// `{"launches_attempted": 42, "refused_pool": 0, ...}`. Embedded verbatim
  /// in the `robustness` field of `BENCH_<suite>.json` records:
  /// ```cpp
  ///   simt::RunReport rep = session.report();
  ///   std::string row = rep.robustness.to_json();
  /// ```
  std::string to_json() const;
};

/// nvprof-like counters, accumulated per kernel and aggregated per run.
///
/// Derived ratios mirror the metrics the paper reports:
///  - warp execution efficiency (Table I, Table II, Figs. 7/8 profiling)
///  - gld/gst efficiency (Table I)
///  - warp occupancy (dbuf-shared vs dbuf-global discussion)
///  - atomic and kernel-launch counts (Figs. 5, 7, 8)
struct Metrics {
  // Warp execution efficiency inputs.
  std::uint64_t warp_steps = 0;        ///< SIMT steps with >=1 active lane.
  std::uint64_t active_lane_ops = 0;   ///< Sum of active lanes over those steps.

  // Global memory efficiency inputs.
  std::uint64_t gld_requested_bytes = 0;
  std::uint64_t gld_transferred_bytes = 0;
  std::uint64_t gst_requested_bytes = 0;
  std::uint64_t gst_transferred_bytes = 0;

  // Counters.
  std::uint64_t atomic_ops = 0;
  std::uint64_t shared_ops = 0;
  std::uint64_t compute_ops = 0;
  std::uint64_t host_launches = 0;
  std::uint64_t device_launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t warps = 0;

  // Occupancy inputs, filled by the timing pass: integral over SM-active time
  // of resident warps, and the corresponding active time (cycles x SMs).
  double resident_warp_cycles = 0.0;
  double sm_active_cycles = 0.0;

  /// Modeled issue cycles lost to the fault path: refused-launch issue cost
  /// plus retry-backoff stalls, already folded into the block costs. Kept as
  /// a separate tally so the critical-path analyzer (critpath.h) can carve a
  /// `fault` share out of a grid's execution span. Model-internal: not part
  /// of to_string()/to_json() output (fault-free runs stay byte-identical).
  double fault_cycles = 0.0;

  // Fault-model counters (see RobustnessCounters).
  RobustnessCounters robustness;

  /// Per-warp-instruction-group active-lane histogram: slot n counts issued
  /// groups in which n lanes participated (compute groups weighted by their
  /// step count), so slot 32 is fully converged execution and the low slots
  /// are the divergence tail. Collected unconditionally — the increments are
  /// deterministic and cheap — but only surfaced through the profiling
  /// subsystem (simt::Profile), never in default report output.
  std::uint64_t active_lane_hist[33] = {};

  /// Ratio of average active lanes per step to the warp width.
  double warp_execution_efficiency() const {
    return warp_steps == 0 ? 0.0
                           : static_cast<double>(active_lane_ops) /
                                 (32.0 * static_cast<double>(warp_steps));
  }
  /// Requested / transferred global load bytes (1.0 = perfectly coalesced).
  double gld_efficiency() const {
    return gld_transferred_bytes == 0
               ? 0.0
               : static_cast<double>(gld_requested_bytes) /
                     static_cast<double>(gld_transferred_bytes);
  }
  /// Requested / transferred global store bytes.
  double gst_efficiency() const {
    return gst_transferred_bytes == 0
               ? 0.0
               : static_cast<double>(gst_requested_bytes) /
                     static_cast<double>(gst_transferred_bytes);
  }
  /// Average resident warps per active cycle over the SM warp capacity.
  double warp_occupancy(int max_warps_per_sm) const {
    return sm_active_cycles <= 0.0
               ? 0.0
               : resident_warp_cycles /
                     (sm_active_cycles * static_cast<double>(max_warps_per_sm));
  }

  Metrics& operator+=(const Metrics& o);

  /// Multi-line human-readable dump (for debugging and examples).
  std::string to_string(int max_warps_per_sm = 64) const;

  /// Single-line JSON object holding the raw counters plus the derived
  /// ratios (`warp_execution_efficiency`, `gld_efficiency`,
  /// `gst_efficiency`, `warp_occupancy`), nesting `robustness.to_json()`.
  /// Machine-readable twin of `to_string` for trace tooling and the bench
  /// results pipeline:
  /// ```cpp
  ///   std::ofstream("metrics.json") << report.aggregate.to_json();
  /// ```
  std::string to_json(int max_warps_per_sm = 64) const;
};

}  // namespace nestpar::simt
