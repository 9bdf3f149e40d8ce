#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/simt/critpath.h"
#include "src/simt/device_spec.h"
#include "src/simt/exec_policy.h"
#include "src/simt/kernel.h"
#include "src/simt/launch_graph.h"
#include "src/simt/metrics.h"
#include "src/simt/recorder.h"
#include "src/simt/scheduler.h"
#include "src/simt/thread_pool.h"

namespace nestpar::simt {

class Session;

/// One scheduled grid with its timed placement, exported (opt-in, see
/// Device::set_collect_slices) for unified serve+device trace timelines.
/// Times are microseconds relative to the session's time zero.
struct GridSlice {
  std::uint32_t node = 0;           ///< Launch-graph node id.
  std::int64_t parent = -1;         ///< Parent node id (-1 for host grids).
  std::uint32_t stream = 0;
  LaunchOrigin origin = LaunchOrigin::kHost;
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  double cycles = 0.0;              ///< Busy cycles (end - start).
  std::uint64_t batch_id = kNoBatchId;
  std::vector<TraceMember> members; ///< Requesters stamped on the node.
};

/// Per-kernel-name summary in a run report.
struct KernelReport {
  std::string name;
  std::uint64_t invocations = 0;
  double busy_cycles = 0.0;  ///< Sum of (end - start) over invocations.
  Metrics metrics;
};

/// Result of timing one recorded session.
struct RunReport {
  double total_cycles = 0.0;
  double total_us = 0.0;
  Metrics aggregate;
  std::vector<KernelReport> per_kernel;
  std::uint64_t grids = 0;
  std::uint64_t device_grids = 0;
  /// Critical-path decomposition of the scheduled session: the binding chain
  /// from the last-finishing grid back to time zero, with every makespan
  /// cycle attributed to an edge category (see critpath.h). Empty (makespan
  /// 0, no chain) for an empty session.
  CritPath critical_path;
  /// Per-run fault-model summary: launch attempts, refusals (by cause),
  /// retries, and template degradations — device-side counters plus
  /// host-launch faults. All-zero (except launches_attempted) by default.
  RobustnessCounters robustness;
  /// Per-request device-cost attribution over context-stamped grids (empty
  /// when nothing carried a serve context — all bench/profiling paths).
  CycleAttribution attribution;
  /// Timed grid slices for unified trace export; filled only when the
  /// device's set_collect_slices switch is on (serving layer with --trace).
  std::vector<GridSlice> slices;

  /// Lookup a kernel summary by name; throws if absent.
  const KernelReport& kernel(const std::string& name) const;
};

/// The simulated GPU: the substrate every parallelization template runs on.
///
/// Usage mirrors a minimal CUDA host API; an RAII Session bounds each
/// recording, and is the only way to time one:
///   Device dev;                                  // K20-like device
///   {
///     Session s = dev.session();                 // fresh recording
///     dev.launch(cfg, kernel);                   // eager functional execution
///     dev.launch_threads(cfg, [&](LaneCtx& t) {...});
///     RunReport r = s.report();                  // timing pass
///   }                                            // recording discarded
///
/// Kernels execute functionally at launch time (results are immediately
/// visible to host code, which iterative algorithms rely on to test
/// convergence); the performance model replays the recorded session when
/// the Session's `report()` is called.
///
/// Host launches throw SimtException when refused, so a host-site fault
/// fails the whole run (the serving layer catches it to fail one attempt);
/// device-side launches (LaneCtx) return a LaunchResult instead, so kernels
/// can degrade.
///
/// Host execution engine: an ExecPolicy (constructor argument, per-session
/// override, or `NESTPAR_EXEC`/`NESTPAR_THREADS` environment) selects
/// between the serial engine and the one that reduces finished warp traces
/// on a host thread pool. Kernel code runs on the launching thread under
/// both, so both produce identical functional results and bit-identical
/// reports; parallel only changes how long the simulation itself takes on
/// the host.
class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::k20(),
                  int max_nesting_depth = 24,
                  ExecPolicy policy = ExecPolicy::from_env());

  /// Open a fresh recording session (discards any prior recording). The
  /// returned Session finalizes — discards the recording and restores the
  /// device's policy — when it goes out of scope. Only one Session may be
  /// open per Device at a time (throws std::logic_error otherwise).
  Session session();
  /// Same, with a per-session engine override.
  Session session(const ExecPolicy& policy);

  /// Launch a block-structured kernel from the host. Throws SimtException
  /// when the launch is refused (host-site fault injection).
  void launch(const LaunchConfig& cfg, Kernel k, StreamHandle stream = {});
  /// Launch a single-phase per-lane kernel from the host.
  void launch_threads(const LaunchConfig& cfg, ThreadKernel k,
                      StreamHandle stream = {});

  /// Configure the transient-fault injector programmatically (overrides the
  /// `NESTPAR_FAULTS` environment config installed at construction).
  void set_fault_config(const FaultConfig& cfg) {
    recorder_.set_fault_config(cfg);
  }
  const FaultConfig& fault_config() const {
    return recorder_.fault_injector().config();
  }

  /// cudaEventRecord / cudaStreamWaitEvent analogues: cross-stream ordering
  /// for the timing model (functional execution is eager and already
  /// ordered by launch sequence).
  EventHandle record_event(StreamHandle stream = {}) {
    return recorder_.record_event(stream);
  }
  void stream_wait(StreamHandle stream, EventHandle event) {
    recorder_.stream_wait(stream, event);
  }

  /// Profiling hooks: record a counter sample / distribution value / instant
  /// event on the calling thread's active simt::Profile, stamped with this
  /// device's current launch-graph watermark. All three are no-ops — zero
  /// cost, zero allocation — with no active profile; call sites that build
  /// track names dynamically should gate on `active_profile()` themselves.
  void prof_counter(std::string_view track, double value);
  void prof_value(std::string_view track, double value);
  void prof_instant(std::string_view name, std::string_view cat);

  /// Ambient serving-layer context for subsequent launches (see
  /// Recorder::set_trace_context). Cleared when a new Session opens.
  void set_trace_context(const TraceContext& ctx) {
    recorder_.set_trace_context(ctx);
  }
  void clear_trace_context() { recorder_.clear_trace_context(); }

  /// When on, report() also exports per-grid timed slices
  /// (RunReport::slices) for unified trace timelines. Off by default; purely
  /// additive output, no modeled effect. Survives sessions.
  void set_collect_slices(bool on) { collect_slices_ = on; }

  /// Engine policy for subsequent launches. Takes effect immediately; the
  /// thread pool is created lazily and kept across sessions.
  void set_exec_policy(const ExecPolicy& policy);
  const ExecPolicy& exec_policy() const { return policy_; }

  const DeviceSpec& spec() const { return recorder_.spec(); }
  const LaunchGraph& graph() const { return recorder_.graph(); }

  /// Grid size helper: blocks needed so that blocks*threads >= work items,
  /// clamped to `max_blocks` (grid-stride loops handle the remainder).
  static int blocks_for(std::int64_t items, int block_threads,
                        int max_blocks = 65535);

 private:
  friend class Session;
  /// Run the timing pass over everything launched in the open session. With
  /// an active simt::Profile, the timed graph is also folded into it.
  RunReport report();
  /// Bind the recorder to the pool `policy_` calls for (creating/resizing
  /// it lazily), or unbind it for serial execution.
  void apply_policy();

  Recorder recorder_;
  ExecPolicy policy_;
  std::unique_ptr<ThreadPool> pool_;
  bool session_active_ = false;
  bool collect_slices_ = false;
};

/// RAII recording session on a Device. Construction starts a fresh
/// recording (optionally under a different ExecPolicy); destruction discards
/// it and restores the device's policy. Kernels are launched through the
/// borrowed Device (`device()`); the session only bounds the recording and
/// times it.
class Session {
 public:
  Session(Session&& other) noexcept;
  Session& operator=(Session&&) = delete;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  Device& device() const { return *dev_; }

  /// Serving-layer provenance for everything launched after this call (the
  /// fresh session starts with no context).
  void set_trace_context(const TraceContext& ctx) {
    dev_->set_trace_context(ctx);
  }

  /// Timing pass over everything recorded in this session so far. Can be
  /// called repeatedly (e.g. once per convergence milestone).
  RunReport report() { return dev_->report(); }

  const LaunchGraph& graph() const { return dev_->graph(); }

 private:
  friend class Device;
  Session(Device* dev, const ExecPolicy& policy);

  Device* dev_;        ///< Null after being moved from.
  ExecPolicy restore_; ///< Device policy to reinstate on close.
};

}  // namespace nestpar::simt
