#include "src/serve/trace.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "src/simt/trace_json.h"

namespace nestpar::serve {

namespace tj = simt::trace_json;

std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kBatch: return "batch";
    case SpanKind::kExec: return "exec";
    case SpanKind::kBackoff: return "backoff";
    case SpanKind::kAdmit: return "admit";
    case SpanKind::kVerify: return "verify";
    case SpanKind::kOk: return "ok";
    case SpanKind::kExpired: return "expired";
    case SpanKind::kShed: return "shed";
  }
  return "?";
}

void ServeTracer::record_grids(std::uint64_t request, std::uint32_t tenant,
                               std::uint64_t batch, int shard, int attempt,
                               std::uint64_t attempt_seq, double exec_begin_us,
                               const std::vector<simt::GridSlice>& slices) {
  if (!enabled_) return;
  for (const simt::GridSlice& s : slices) {
    GridEvent e;
    e.request = request;
    e.tenant = tenant;
    e.batch = batch;
    e.attempt_seq = attempt_seq;
    e.shard = shard;
    e.attempt = attempt;
    e.node = s.node;
    e.parent = s.parent;
    e.stream = s.stream;
    e.device_origin = s.origin == simt::LaunchOrigin::kDevice;
    e.name = s.name;
    e.start_us = exec_begin_us + s.start_us;
    e.dur_us = s.dur_us;
    e.cycles = s.cycles;
    grids_.push_back(std::move(e));
  }
}

void ServeTracer::evict_oldest_request() {
  if (spans_.empty()) return;
  // Whole-tree eviction: drop every span and grid event of the request that
  // owns the oldest retained span, so survivors stay well-formed.
  const std::uint64_t victim = spans_.front().request;
  const auto keep = [victim](std::uint64_t request) {
    return request != victim;
  };
  const std::size_t before = spans_.size();
  spans_.erase(std::remove_if(spans_.begin(), spans_.end(),
                              [&](const ServeSpan& s) {
                                return !keep(s.request);
                              }),
               spans_.end());
  grids_.erase(std::remove_if(grids_.begin(), grids_.end(),
                              [&](const GridEvent& g) {
                                return !keep(g.request);
                              }),
               grids_.end());
  evicted_spans_ += before - spans_.size();
  ++evicted_requests_;
}

namespace {

using tj::kServePid;
using tj::kServeRequestsTid;

bool is_instant(SpanKind k) {
  switch (k) {
    case SpanKind::kAdmit:
    case SpanKind::kVerify:
    case SpanKind::kOk:
    case SpanKind::kExpired:
    case SpanKind::kShed:
      return true;
    default:
      return false;
  }
}

/// Async begin with an open args object the caller fills and closes.
void open_async_begin(std::ostream& out, std::string_view name,
                      std::uint64_t id, double ts_us) {
  out << "{\"name\":\"" << name << "\",\"cat\":\"serve\",\"ph\":\"b\",\"id\":"
      << id << ",\"ts\":" << ts_us << ",\"pid\":" << kServePid
      << ",\"tid\":" << kServeRequestsTid << ",\"args\":{";
}

void write_async_end(std::ostream& out, std::string_view name,
                     std::uint64_t id, double ts_us) {
  out << "{\"name\":\"" << name << "\",\"cat\":\"serve\",\"ph\":\"e\",\"id\":"
      << id << ",\"ts\":" << ts_us << ",\"pid\":" << kServePid
      << ",\"tid\":" << kServeRequestsTid << "}";
}

/// Instant marker with an open args object.
void open_instant(std::ostream& out, std::string_view name, double ts_us) {
  out << "{\"name\":\"" << name << "\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":"
      << "\"t\",\"ts\":" << ts_us << ",\"pid\":" << kServePid
      << ",\"tid\":" << kServeRequestsTid << ",\"args\":{";
}

}  // namespace

void write_serve_trace(std::ostream& out, const ServeTracer& tracer,
                       const Telemetry* telemetry, int num_shards,
                       const std::vector<Completion>* completions) {
  out << "{\"traceEvents\":[";
  tj::write_process_name(out, kServePid, "serve");
  out << ",";
  tj::write_thread_name(out, kServePid, kServeRequestsTid, "requests");
  for (int s = 0; s < num_shards; ++s) {
    out << ",";
    tj::write_thread_name(out, kServePid, tj::serve_shard_tid(s),
                          tj::serve_shard_track_name(s));
  }

  // (request, attempt) -> exec span, for the winning-attempt flow arrows.
  // Attempt numbers are global per request (they keep counting across
  // shards), so the pair is unique.
  std::map<std::pair<std::uint64_t, int>, const ServeSpan*> exec_by_attempt;
  // (request, batch) -> kBatch span, anchoring request -> batch flow arrows.
  std::map<std::pair<std::uint64_t, std::uint64_t>, const ServeSpan*>
      batch_span;

  for (const ServeSpan& sp : tracer.spans()) {
    const std::string_view name = to_string(sp.kind);
    if (is_instant(sp.kind)) {
      out << ",";
      open_instant(out, name, sp.begin_us);
      out << "\"request\":" << sp.request << ",\"shard\":" << sp.shard;
      if (sp.kind == SpanKind::kAdmit) {
        out << ",\"depth\":" << sp.aux;
      } else if (sp.kind == SpanKind::kVerify) {
        out << ",\"correct\":" << (sp.flag ? 1 : 0);
      } else {
        out << ",\"attempt\":" << sp.attempt;
      }
      out << "}}";
      continue;
    }
    // Duration span: one nested async b/e pair on the request row.
    out << ",";
    open_async_begin(out, name, sp.request, sp.begin_us);
    switch (sp.kind) {
      case SpanKind::kRequest:
        out << "\"hedged\":" << (sp.flag ? 1 : 0);
        break;
      case SpanKind::kBatch:
        out << "\"shard\":" << sp.shard << ",\"batch\":" << sp.batch;
        batch_span[{sp.request, sp.batch}] = &sp;
        break;
      case SpanKind::kExec:
        out << "\"shard\":" << sp.shard << ",\"attempt\":" << sp.attempt
            << ",\"ok\":" << (sp.flag ? 1 : 0) << ",\"batch\":" << sp.batch;
        break;
      case SpanKind::kBackoff:
        out << "\"shard\":" << sp.shard << ",\"attempt\":" << sp.attempt;
        break;
      default:
        out << "\"shard\":" << sp.shard;
        break;
    }
    out << "}}";
    out << ",";
    write_async_end(out, name, sp.request, sp.end_us);

    if (sp.kind == SpanKind::kExec) {
      exec_by_attempt[{sp.request, sp.attempt}] = &sp;
      // The shard-row mirror: a complete slice on the executing shard's
      // timeline, the serve-side analogue of the simulator's per-grid
      // tracks.
      out << ",{\"name\":\"exec\",\"cat\":\"serve-shard\",\"ph\":\"X\","
          << "\"ts\":" << sp.begin_us
          << ",\"dur\":" << (sp.end_us - sp.begin_us)
          << ",\"pid\":" << kServePid
          << ",\"tid\":" << tj::serve_shard_tid(sp.shard)
          << ",\"args\":{\"request\":" << sp.request
          << ",\"attempt\":" << sp.attempt << ",\"ok\":" << (sp.flag ? 1 : 0)
          << ",\"launches\":" << sp.aux << ",\"batch\":" << sp.batch << "}}";
    }
  }

  // Winning-attempt flow arrows: Ok markers know which (shard, attempt)
  // produced the result; draw shard-row exec slice -> request completion.
  for (const ServeSpan& sp : tracer.spans()) {
    if (sp.kind != SpanKind::kOk) continue;
    const auto it = exec_by_attempt.find({sp.request, sp.attempt});
    if (it == exec_by_attempt.end()) continue;
    const ServeSpan& exec = *it->second;
    out << ",";
    tj::write_flow_start(out, "win", "serve-flow", sp.request, exec.begin_us,
                         kServePid, tj::serve_shard_tid(exec.shard));
    out << ",";
    tj::write_flow_end(out, "win", "serve-flow", sp.request, sp.begin_us,
                       kServePid, kServeRequestsTid);
  }

  // ---- Unified cross-layer timeline: scheduled grids per shard device ----
  const std::vector<GridEvent>& grids = tracer.grids();
  if (!grids.empty()) {
    // Device process rows: name each shard's device and every stream row it
    // used (streams are dense per attempt; the row set is their union).
    std::map<std::pair<int, std::uint32_t>, bool> rows;
    for (const GridEvent& g : grids) rows[{g.shard, g.stream}] = true;
    int last_pid = -1;
    for (const auto& [row, unused] : rows) {
      (void)unused;
      const int pid = tj::device_pid(row.first);
      if (pid != last_pid) {
        out << ",";
        tj::write_process_name(out, pid,
                               tj::device_process_name(row.first));
        last_pid = pid;
      }
      out << ",";
      tj::write_thread_name(out, pid, row.second,
                            tj::stream_track_name(row.second));
    }

    // Grid slices: every scheduled grid — consolidated child grids included —
    // stamped with its full provenance. Every slice carries "batch"
    // (tools/check_trace.py enforces this).
    for (const GridEvent& g : grids) {
      out << ",{\"name\":\"";
      tj::write_escaped(out, g.name);
      out << "\",\"cat\":\"serve-grid\",\"ph\":\"X\",\"ts\":" << g.start_us
          << ",\"dur\":" << g.dur_us << ",\"pid\":" << tj::device_pid(g.shard)
          << ",\"tid\":" << g.stream << ",\"args\":{\"request\":" << g.request
          << ",\"tenant\":" << g.tenant << ",\"batch\":" << g.batch
          << ",\"attempt\":" << g.attempt << ",\"node\":" << g.node
          << ",\"origin\":\"" << (g.device_origin ? "device" : "host")
          << "\",\"cycles\":" << g.cycles << "}}";
    }

    // Flow-arrow chain request -> batch -> grid -> child grid. Each arrow
    // pair gets a fresh id; the join semantics live in the cat/name.
    std::uint64_t flow_id = 0;
    // request -> batch: batch span (request row) to exec slice (shard row).
    for (const auto& [key, exec] : exec_by_attempt) {
      (void)key;
      const auto it = batch_span.find({exec->request, exec->batch});
      if (it == batch_span.end()) continue;
      out << ",";
      tj::write_flow_start(out, "batch", "serve-dispatch", flow_id,
                           it->second->begin_us, kServePid,
                           kServeRequestsTid);
      out << ",";
      tj::write_flow_end(out, "batch", "serve-dispatch", flow_id,
                         exec->begin_us, kServePid,
                         tj::serve_shard_tid(exec->shard));
      ++flow_id;
    }
    // exec -> host grid, and parent grid -> child grid.
    std::map<std::pair<std::uint64_t, std::uint32_t>, const GridEvent*>
        by_node;
    for (const GridEvent& g : grids) by_node[{g.attempt_seq, g.node}] = &g;
    for (const GridEvent& g : grids) {
      const int pid = tj::device_pid(g.shard);
      if (g.parent < 0) {
        const auto it = exec_by_attempt.find({g.request, g.attempt});
        if (it == exec_by_attempt.end()) continue;
        out << ",";
        tj::write_flow_start(out, "grid", "serve-grid-flow", flow_id,
                             it->second->begin_us, kServePid,
                             tj::serve_shard_tid(g.shard));
        out << ",";
        tj::write_flow_end(out, "grid", "serve-grid-flow", flow_id,
                           g.start_us, pid, g.stream);
        ++flow_id;
      } else {
        const auto it = by_node.find(
            {g.attempt_seq, static_cast<std::uint32_t>(g.parent)});
        if (it == by_node.end()) continue;
        const GridEvent& parent = *it->second;
        out << ",";
        tj::write_flow_start(out, "child-grid", "serve-grid-flow", flow_id,
                             parent.start_us, pid, parent.stream);
        out << ",";
        tj::write_flow_end(out, "child-grid", "serve-grid-flow", flow_id,
                           g.start_us, pid, g.stream);
        ++flow_id;
      }
    }
  }

  // ---- Per-request device-cycle attribution (conservation record) ----
  // Listed in completion-processing order with round-trip precision; `total`
  // is the fold of the listed entries in that order, so a validator summing
  // them left to right must reproduce it bit-exactly.
  if (completions != nullptr) {
    double total = 0.0;
    double fault_total = 0.0;
    out << ",{\"name\":\"device_cycles\",\"cat\":\"serve-attribution\","
        << "\"ph\":\"i\",\"s\":\"g\",\"ts\":0,\"pid\":" << kServePid
        << ",\"tid\":" << kServeRequestsTid << ",\"args\":{\"per_request\":[";
    for (std::size_t i = 0; i < completions->size(); ++i) {
      const Completion& c = (*completions)[i];
      if (i != 0) out << ",";
      out << "[" << c.id << "," << c.tenant << ",";
      tj::write_exact(out, c.device_cycles);
      out << "]";
      total += c.device_cycles;
      fault_total += c.fault_device_cycles;
    }
    out << "],\"total\":";
    tj::write_exact(out, total);
    out << ",\"fault_total\":";
    tj::write_exact(out, fault_total);
    out << "}}";
  }

  if (tracer.evicted_requests() > 0) {
    out << ",{\"name\":\"trace_ring_evictions\",\"ph\":\"M\",\"pid\":"
        << kServePid << ",\"args\":{\"requests\":" << tracer.evicted_requests()
        << ",\"spans\":" << tracer.evicted_spans() << "}}";
  }

  if (telemetry != nullptr && telemetry->enabled()) {
    for (const TimeSeries& series : telemetry->series()) {
      for (const TimePoint& p : series.points) {
        out << ",";
        tj::write_counter(out, series.name, p.t_us, kServePid, p.value);
      }
    }
  }

  out << "],\"displayTimeUnit\":\"ms\"}";
}

}  // namespace nestpar::serve
