#include "src/simt/trace_export.h"

#include <ostream>

#include "src/simt/critpath.h"
#include "src/simt/profiler.h"
#include "src/simt/scheduler.h"
#include "src/simt/trace_json.h"

namespace nestpar::simt {

namespace {

using trace_json::kSimPid;
using trace_json::write_escaped;

/// Timestamp for a launch-graph watermark (see CounterSample::node): the
/// start of the grid launched right after the sample was taken, or the end
/// of the schedule when the sample came after the last launch (or from an
/// earlier session recorded into the same profile).
double watermark_us(const DeviceSpec& spec, const ScheduleResult& sched,
                    std::uint64_t node) {
  if (node < sched.node_start.size()) {
    return spec.cycles_to_us(sched.node_start[node]);
  }
  return spec.cycles_to_us(sched.total_cycles);
}

/// One Perfetto instant event attributing fault-model activity to a grid.
void write_fault_instant(std::ostream& out, const char* name,
                         std::uint64_t count, const KernelNode& node,
                         double ts_us) {
  out << ",{\"name\":\"" << name << "\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":"
      << "\"g\",\"ts\":" << ts_us << ",\"pid\":" << trace_json::kSimPid
      << ",\"tid\":" << node.stream
      << ",\"args\":{\"kernel\":\"";
  write_escaped(out, node.name);
  out << "\",\"count\":" << count << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Device& dev) {
  // Copy: schedule() annotates occupancy metrics into the graph, and the
  // caller's session must stay untouched for its own report().
  LaunchGraph graph = dev.graph();
  const DeviceSpec& spec = dev.spec();
  ScheduleResult sched;
  if (!graph.nodes.empty()) {
    sched = schedule(spec, graph);
  }

  out << "{\"traceEvents\":[";
  bool first = true;
  for (const KernelNode& node : graph.nodes) {
    if (!first) out << ",";
    first = false;
    const double start_us = spec.cycles_to_us(sched.node_start[node.id]);
    const double dur_us = spec.cycles_to_us(
        std::max(0.0, sched.node_end[node.id] - sched.node_start[node.id]));
    out << "{\"name\":\"";
    write_escaped(out, node.name);
    out << "\",\"cat\":\""
        << (node.origin == LaunchOrigin::kHost ? "host-launch"
                                               : "device-launch")
        << "\",\"ph\":\"X\",\"ts\":" << start_us << ",\"dur\":" << dur_us
        << ",\"pid\":" << kSimPid
        << ",\"tid\":" << node.stream << ",\"args\":{"
        << "\"grid_blocks\":" << node.grid_blocks
        << ",\"block_threads\":" << node.block_threads
        << ",\"nest_depth\":" << node.nest_depth
        << ",\"atomics\":" << node.metrics.atomic_ops << ",\"warp_eff\":"
        << node.metrics.warp_execution_efficiency();
    // Serving-layer provenance, only when stamped (context-free sessions —
    // every bench/profiling path — emit byte-identical traces).
    if (node.batch_id != kNoBatchId) {
      out << ",\"batch\":" << node.batch_id << ",\"requests\":[";
      for (std::size_t i = 0; i < node.requesters.size(); ++i) {
        if (i != 0) out << ",";
        out << node.requesters[i].request;
      }
      out << "]";
    }
    out << "}}";
  }

  // Profiling extension (gated so profile-off traces are byte-identical to
  // the pre-profiler exporter): Perfetto counter tracks for template
  // telemetry (queue split sizes, split levels, ...) plus instant events for
  // template-emitted markers (queue flushes) and fault-model activity
  // attributed to the grid it happened in.
  const Profile* prof = active_profile();
  if (!first && prof != nullptr) {
    for (const CounterSample& c : prof->counters) {
      out << ",";
      trace_json::write_counter(out, c.track,
                                watermark_us(spec, sched, c.node), kSimPid,
                                c.value);
    }
    for (const InstantSample& e : prof->instants) {
      out << ",";
      trace_json::write_instant(out, e.name, e.cat, "g",
                                watermark_us(spec, sched, e.node), kSimPid, 0);
    }
    for (const KernelNode& node : graph.nodes) {
      const RobustnessCounters& rb = node.metrics.robustness;
      if (!rb.any_fault()) continue;
      const double ts_us = spec.cycles_to_us(sched.node_start[node.id]);
      if (rb.faults_injected > 0) {
        write_fault_instant(out, "fault-injected", rb.faults_injected, node,
                            ts_us);
      }
      const std::uint64_t refused =
          rb.refused_pool + rb.refused_depth + rb.refused_heap;
      if (refused > 0) {
        write_fault_instant(out, "launch-refused", refused, node, ts_us);
      }
      if (rb.retries > 0) {
        write_fault_instant(out, "retry", rb.retries, node, ts_us);
      }
      if (rb.degraded > 0) {
        write_fault_instant(out, "degraded", rb.degraded, node, ts_us);
      }
    }

    // Launch-edge flow events: one s/f pair per device-launched grid, from
    // the parent grid's row at the issue point to the child's row at its
    // start — Perfetto draws these as arrows along the CDP launch edges.
    for (const KernelNode& node : graph.nodes) {
      if (node.origin != LaunchOrigin::kDevice || node.parent_kernel < 0) {
        continue;
      }
      const KernelNode& parent =
          graph.nodes[static_cast<std::size_t>(node.parent_kernel)];
      out << ",";
      trace_json::write_flow_start(
          out, "launch", "launch", node.id,
          spec.cycles_to_us(sched.node_issued[node.id]), kSimPid,
          parent.stream);
      out << ",";
      trace_json::write_flow_end(out, "launch", "launch", node.id,
                                 spec.cycles_to_us(sched.node_start[node.id]),
                                 kSimPid, node.stream);
    }

    // Critical-path track: a dedicated row (tid one past the stream rows)
    // showing the binding chain, one slice per attributed segment named by
    // its edge category. Zero-duration stream-wait markers are skipped.
    const std::uint32_t crit_tid = graph.num_streams;
    out << ",";
    trace_json::write_thread_name(out, kSimPid, crit_tid, "critical path");
    const CritPath crit = analyze_critical_path(graph, sched);
    for (const CritSegment& seg : crit.chain) {
      if (seg.cycles <= 0.0) continue;
      out << ",{\"name\":\"" << to_string(seg.category)
          << "\",\"cat\":\"critical-path\",\"ph\":\"X\",\"ts\":"
          << spec.cycles_to_us(seg.begin)
          << ",\"dur\":" << spec.cycles_to_us(seg.cycles)
          << ",\"pid\":" << kSimPid << ",\"tid\":" << crit_tid << ",\"args\":{\"kernel\":\"";
      write_escaped(out, seg.kernel);
      out << "\",\"cycles\":" << seg.cycles << "}}";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
}

}  // namespace nestpar::simt
