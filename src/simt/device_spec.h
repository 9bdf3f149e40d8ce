#pragma once

#include <cstddef>
#include <cstdint>

namespace nestpar::simt {

/// Hard device-runtime resource limits whose exhaustion *refuses* launches
/// (SimtError), as opposed to the soft pending-launch spill model below that
/// only slows them down. Zero means unlimited for the pool and heap fields.
///
/// Determinism note: the engine partitions each grid's pool and heap budget
/// evenly across its blocks, so which launch attempt gets refused depends
/// only on per-block launch order — bit-identical across host engines — not
/// on cross-block timing (a model approximation of the shared hardware pool).
struct ResourceLimits {
  /// Device launches a grid may have pending; 0 = unlimited. CUDA's
  /// cudaLimitDevRuntimePendingLaunchCount defaults to 2048.
  int pending_launch_capacity = 0;
  /// Maximum nesting depth of device launches (CDP hard limit: 24).
  int max_nesting_depth = 24;
  /// Device-heap bytes available for launch bookkeeping; 0 = unlimited.
  /// The CUDA device runtime's default heap is 8 MB.
  std::size_t device_heap_bytes = 0;
  /// Heap bytes each pending launch consumes from `device_heap_bytes`.
  std::size_t heap_bytes_per_launch = 1024;
};

/// Architectural and cost-model parameters of the simulated GPU.
///
/// The defaults model an NVIDIA K20 (Kepler GK110, compute capability 3.5),
/// the device used in the paper's evaluation. All per-operation costs are in
/// device clock cycles; wall-clock conversion uses `clock_ghz`.
struct DeviceSpec {
  // --- Hardware shape -------------------------------------------------------
  int num_sms = 13;             ///< Streaming multiprocessors.
  int cores_per_sm = 192;       ///< CUDA cores per SM.
  int warp_size = 32;           ///< Lanes per warp.
  int schedulers_per_sm = 4;    ///< Warp schedulers per SM (issue width).

  // --- Occupancy limits (CC 3.5) -------------------------------------------
  int max_warps_per_sm = 64;
  int max_blocks_per_sm = 16;
  int max_threads_per_sm = 2048;
  int max_threads_per_block = 1024;
  std::size_t shared_mem_per_sm = 48 * 1024;
  std::size_t shared_mem_per_block = 48 * 1024;
  int registers_per_sm = 65536;
  int max_concurrent_grids = 32;  ///< HyperQ / CDP concurrent grid limit.

  // --- Clock ----------------------------------------------------------------
  double clock_ghz = 0.706;  ///< K20 core clock.

  // --- Cost model (cycles unless noted) --------------------------------------
  double compute_op_cycles = 1.0;   ///< One arithmetic instruction per lane-step.
  double shared_op_cycles = 2.0;    ///< Shared-memory access (per bank-conflict way).
  double mem_base_cycles = 10.0;    ///< Fixed issue+pipeline cost of a global access step.
  double mem_transaction_cycles = 20.0;  ///< Throughput cost per 128B transaction.
  double atomic_op_cycles = 24.0;   ///< Per serialized atomic to one address.
  double atomic_drain_cycles = 1.5; ///< Device-wide per-op drain rate on the hottest
                                    ///< address (Kepler: ~1 same-address atomic per clock).
  double sync_cycles = 16.0;        ///< Block-wide barrier.
  double launch_issue_cycles = 800.0;     ///< Lane-side cost of issuing a device launch.
  double block_dispatch_cycles = 300.0;   ///< Fixed overhead to start a block on an SM.

  // --- Launch latencies (microseconds; converted internally) ----------------
  double host_launch_us = 6.0;    ///< Host-side kernel launch latency.
  double device_launch_us = 12.0; ///< Device-side (nested) kernel launch latency.
  /// Grid-management-unit service time per device-launched grid: nested
  /// grids activate through a single queue, so massive CDP fan-out
  /// serializes here (the paper's dpar-naive / rec-naive overhead).
  double device_launch_service_us = 4.0;
  /// Pending-launch pool: nested launches beyond this backlog spill into the
  /// software-virtualized queue, whose per-grid cost is dramatically higher
  /// (CUDA's cudaLimitDevRuntimePendingLaunchCount behaviour).
  int pending_launch_pool = 2048;
  double virtualized_launch_service_us = 300.0;
  /// GMU service time per *extra* work descriptor carried by a consolidated
  /// nested launch (workload consolidation): a grid aggregating K descriptors
  /// costs one base activation plus (K-1) of these — far cheaper than K
  /// separate activations, which is the whole point of consolidating.
  double aggregated_descriptor_service_us = 0.2;

  /// Hard launch-resource limits (refusals, not slowdowns); default is
  /// unlimited pool/heap with the architectural 24-level depth limit.
  ResourceLimits limits;

  // --- Memory system ---------------------------------------------------------
  int mem_segment_bytes = 128;  ///< Coalescing segment (L1 line) size.
  int atomic_segment_bytes = 8; ///< Address granularity for atomic conflict detection.

  /// Warps resident on an SM at which latency hiding saturates. Below this,
  /// block execution slows proportionally (poor occupancy => exposed latency).
  int latency_hiding_warps = 24;

  /// K20-like device (the paper's testbed).
  static DeviceSpec k20();
  /// K40-like Kepler: 15 SMs, higher clock, 64KB-configurable shared memory
  /// kept at the 48KB default.
  static DeviceSpec k40();
  /// Entry Kepler (GTX-650-class): 2 SMs — a stress preset showing how the
  /// templates behave when the device is tiny.
  static DeviceSpec small_kepler();

  /// Warps needed by a block of `threads_per_block` threads (rounded up).
  int warps_per_block(int threads_per_block) const;

  /// Cycles for a host-side kernel launch.
  double host_launch_cycles() const { return host_launch_us * 1e3 * clock_ghz; }
  /// Cycles of queueing/dispatch latency for a device-side (nested) launch.
  double device_launch_cycles() const { return device_launch_us * 1e3 * clock_ghz; }
  /// Cycles the grid-management unit spends activating one nested grid.
  double device_launch_service_cycles() const {
    return device_launch_service_us * 1e3 * clock_ghz;
  }
  /// Activation cost once the pending-launch pool has overflowed.
  double virtualized_launch_service_cycles() const {
    return virtualized_launch_service_us * 1e3 * clock_ghz;
  }
  /// Incremental GMU cost per extra descriptor in a consolidated launch.
  double aggregated_descriptor_service_cycles() const {
    return aggregated_descriptor_service_us * 1e3 * clock_ghz;
  }

  /// Convert model cycles to microseconds.
  double cycles_to_us(double cycles) const { return cycles / (clock_ghz * 1e3); }
};

}  // namespace nestpar::simt
