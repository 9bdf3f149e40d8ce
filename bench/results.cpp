#include "results.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench/json.h"
#include "src/simt/device.h"

namespace nestpar::bench {

Measurement Measurement::from_report(const simt::RunReport& rep) {
  Measurement m;
  m.cycles = rep.total_cycles;
  m.warp_efficiency = rep.aggregate.warp_execution_efficiency();
  m.host_launches = rep.aggregate.host_launches;
  m.device_launches = rep.aggregate.device_launches;
  m.robustness = rep.robustness;
  return m;
}

std::string Measurement::key() const {
  std::string k = tmpl + "|" + dataset + "|" + json_num(scale) + "|";
  bool first = true;
  for (const auto& [name, value] : params) {
    if (!first) k += ',';
    first = false;
    k += name + "=" + json_num(value);
  }
  return k;
}

bool Measurement::is_wall_derived(const std::string& metric) {
  return metric.find("wall") != std::string::npos ||
         metric.find("cpu_") != std::string::npos ||
         metric.ends_with("_per_sec");
}

namespace {

/// Files are regenerated, never migrated: a document parses only under the
/// exact schema version this build writes.
void check_schema_version(const JsonObject& root, const char* kind,
                          int supported) {
  const double version = require_num(root, "schema_version");
  if (version != supported) {
    throw std::runtime_error(
        std::string(kind) + " JSON schema_version " + json_num(version) +
        " does not match supported version " + std::to_string(supported) +
        " (regenerate the file with this build's nestpar_bench)");
  }
}

/// Baselines are wall-clock free by construction: a wall-derived key outside
/// the volatile section is a producer bug, rejected at serialization so it
/// can never reach a checked-in file.
void reject_wall_derived(const std::string& record,
                         const std::map<std::string, double>& m,
                         const char* section) {
  for (const auto& [name, value] : m) {
    (void)value;
    if (Measurement::is_wall_derived(name)) {
      throw std::invalid_argument(
          record + ": wall-derived metric '" + name + "' in " + section +
          " must be tagged volatile (put it in volatile_extra)");
    }
  }
}

simt::RobustnessCounters parse_robustness(const JsonObject& rec) {
  simt::RobustnessCounters r;
  const auto rb = num_map(rec, "robustness");
  r.launches_attempted = opt_u64(rb, "launches_attempted");
  r.refused_pool = opt_u64(rb, "refused_pool");
  r.refused_depth = opt_u64(rb, "refused_depth");
  r.refused_heap = opt_u64(rb, "refused_heap");
  r.faults_injected = opt_u64(rb, "faults_injected");
  r.retries = opt_u64(rb, "retries");
  r.degraded = opt_u64(rb, "degraded");
  return r;
}

/// Writes `text` to `<dir>/<name>`, creating `dir` if needed.
std::string write_file(const std::string& dir, const std::string& name,
                       const char* kind, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create " + std::string(kind) +
                             " directory '" + dir + "': " + ec.message());
  }
  const std::string path = dir + "/" + name;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open '" + path + "' for writing");
  f << text;
  if (!f) throw std::runtime_error("write to '" + path + "' failed");
  return path;
}

/// Reads `path` and parses it, prefixing any parse error with the path.
template <typename T>
T load_file(const std::string& path, const char* kind,
            T (*parse)(const std::string&)) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("cannot open " + std::string(kind) + " file '" +
                             path + "'");
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  try {
    return parse(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace

std::string to_json(const SuiteResult& result) {
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": " + std::to_string(kResultSchemaVersion) +
         ",\n";
  out += "  \"generator\": \"nestpar_bench\",\n";
  out += "  \"suite\": " + json_str(result.suite) + ",\n";
  out += "  \"figure\": " + json_str(result.figure) + ",\n";
  out += "  \"measurements\": [";
  for (std::size_t i = 0; i < result.measurements.size(); ++i) {
    const Measurement& m = result.measurements[i];
    const std::string record = "result record '" + m.key() + "'";
    reject_wall_derived(record, m.params, "params");
    reject_wall_derived(record, m.extra, "extra");
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += "\"template\": " + json_str(m.tmpl) + ", ";
    out += "\"dataset\": " + json_str(m.dataset) + ", ";
    out += "\"scale\": " + json_num(m.scale) + ",\n     ";
    out += "\"params\": ";
    append_num_map(out, m.params);
    out += ",\n     ";
    out += "\"cycles\": " + json_num(m.cycles) + ", ";
    out += "\"warp_efficiency\": " + json_num(m.warp_efficiency) + ", ";
    out += "\"host_launches\": " + json_num(m.host_launches) + ", ";
    out += "\"device_launches\": " + json_num(m.device_launches) + ",\n     ";
    out += "\"robustness\": " + m.robustness.to_json() + ",\n     ";
    out += "\"extra\": ";
    append_num_map(out, m.extra);
    // Volatile (wall-clock-derived) metrics live under their own key, and
    // only when present, so byte-stability tooling can drop the section
    // structurally.
    if (!m.volatile_extra.empty()) {
      out += ",\n     \"extra_volatile\": ";
      append_num_map(out, m.volatile_extra);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

SuiteResult parse_result_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonObject& root = as_object(doc, "result JSON root");
  check_schema_version(root, "result", kResultSchemaVersion);
  SuiteResult result;
  result.suite = require_str(root, "suite");
  result.figure = require_str(root, "figure");
  for (const JsonValue& item : require_arr(root, "measurements")) {
    const JsonObject& rec = as_object(item, "result JSON measurement");
    Measurement m;
    m.tmpl = require_str(rec, "template");
    m.dataset = require_str(rec, "dataset");
    m.scale = require_num(rec, "scale");
    m.params = num_map(rec, "params");
    m.cycles = require_num(rec, "cycles");
    m.warp_efficiency = require_num(rec, "warp_efficiency");
    m.host_launches = require_u64(rec, "host_launches");
    m.device_launches = require_u64(rec, "device_launches");
    m.robustness = parse_robustness(rec);
    m.extra = num_map(rec, "extra");
    m.volatile_extra = num_map(rec, "extra_volatile");
    result.measurements.push_back(std::move(m));
  }
  return result;
}

std::string write_result_file(const SuiteResult& result,
                              const std::string& dir) {
  return write_file(dir, "BENCH_" + result.suite + ".json", "result",
                    to_json(result));
}

SuiteResult load_result_file(const std::string& path) {
  return load_file(path, "result", &parse_result_json);
}

// ---------------------------------------------------------------------------
// SERVE_<suite>.json: serving-scenario outcome records.

std::string to_serve_json(const SuiteResult& result) {
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": " + std::to_string(kServeSchemaVersion) +
         ",\n";
  out += "  \"generator\": \"nestpar_bench\",\n";
  out += "  \"kind\": \"serve\",\n";
  out += "  \"suite\": " + json_str(result.suite) + ",\n";
  out += "  \"figure\": " + json_str(result.figure) + ",\n";
  out += "  \"records\": [";
  for (std::size_t i = 0; i < result.serve.size(); ++i) {
    const ServeRecord& r = result.serve[i];
    const serve::ServeStats& s = r.stats;
    const std::string record = "serve record '" + r.scenario + "'";
    reject_wall_derived(record, r.params, "params");
    reject_wall_derived(record, r.extra, "extra");
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"scenario\": " + json_str(r.scenario) + ",\n     ";
    out += "\"params\": ";
    append_num_map(out, r.params);
    out += ",\n     ";
    out += "\"submitted\": " + json_num(s.submitted) + ", ";
    out += "\"ok\": " + json_num(s.ok) + ", ";
    out += "\"expired\": " + json_num(s.expired) + ", ";
    out += "\"shed\": " + json_num(s.shed) + ", ";
    out += "\"wrong\": " + json_num(s.wrong) + ",\n     ";
    out += "\"attempts\": " + json_num(s.attempts) + ", ";
    out += "\"retries\": " + json_num(s.retries) + ", ";
    out += "\"hedges\": " + json_num(s.hedges) + ", ";
    out += "\"batches\": " + json_num(s.batches) + ", ";
    out += "\"probes\": " + json_num(s.probes) + ",\n     ";
    out += "\"breaker_trips\": " + json_num(s.breaker_trips) + ", ";
    out += "\"faults_injected\": " + json_num(s.faults_injected) + ", ";
    out += "\"degraded\": " + json_num(s.degraded) + ",\n     ";
    out += "\"makespan_us\": " + json_num(s.makespan_us) + ", ";
    out += "\"qps_ok\": " + json_num(s.qps_ok) + ",\n     ";
    out += "\"p50_us\": " + json_num(s.p50_us) + ", ";
    out += "\"p95_us\": " + json_num(s.p95_us) + ", ";
    out += "\"p99_us\": " + json_num(s.p99_us) + ", ";
    out += "\"mean_us\": " + json_num(s.mean_us) + ", ";
    out += "\"max_us\": " + json_num(s.max_us) + ",\n     ";
    out += "\"p99_split\": {\"queue\": " + json_num(s.p99_queue_us) +
           ", \"batch\": " + json_num(s.p99_batch_us) +
           ", \"exec\": " + json_num(s.p99_exec_us) +
           ", \"retry\": " + json_num(s.p99_retry_us) + "},\n     ";
    out += "\"device_cycles_total\": " + json_num(s.device_cycles_total) +
           ", \"fault_device_cycles_total\": " +
           json_num(s.fault_device_cycles_total) +
           ", \"launches_total\": " + json_num(s.launches_total);
    if (!r.tenants.empty()) {
      out += ",\n     \"tenants\": [";
      for (std::size_t ti = 0; ti < r.tenants.size(); ++ti) {
        const serve::TenantUsage& t = r.tenants[ti];
        out += ti == 0 ? "\n" : ",\n";
        out += "      {\"tenant\": " +
               json_num(static_cast<std::uint64_t>(t.tenant)) +
               ", \"requests\": " + json_num(t.requests) +
               ", \"ok\": " + json_num(t.ok) +
               ", \"launches\": " + json_num(t.launches) +
               ", \"retries\": " + json_num(t.retries) +
               ", \"device_cycles\": " + json_num(t.device_cycles) +
               ", \"fault_device_cycles\": " +
               json_num(t.fault_device_cycles) + "}";
      }
      out += "\n     ]";
    }
    if (!r.extra.empty()) {
      out += ",\n     \"extra\": ";
      append_num_map(out, r.extra);
    }
    if (!r.volatile_extra.empty()) {
      out += ",\n     \"extra_volatile\": ";
      append_num_map(out, r.volatile_extra);
    }
    if (!r.telemetry.empty()) {
      out += ",\n     \"telemetry\": [";
      for (std::size_t si = 0; si < r.telemetry.size(); ++si) {
        const serve::TimeSeries& ts = r.telemetry[si];
        out += si == 0 ? "\n" : ",\n";
        out += "      {\"name\": " + json_str(ts.name) +
               ", \"unit\": " + json_str(ts.unit) + ", \"points\": [";
        for (std::size_t pi = 0; pi < ts.points.size(); ++pi) {
          if (pi != 0) out += ", ";
          out += '[';
          out += json_num(ts.points[pi].t_us);
          out += ", ";
          out += json_num(ts.points[pi].value);
          out += ']';
        }
        out += "]}";
      }
      out += "\n     ]";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

SuiteResult parse_serve_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonObject& root = as_object(doc, "serve JSON root");
  check_schema_version(root, "serve", kServeSchemaVersion);
  SuiteResult result;
  result.suite = require_str(root, "suite");
  result.figure = require_str(root, "figure");
  for (const JsonValue& item : require_arr(root, "records")) {
    const JsonObject& rec = as_object(item, "serve JSON record");
    ServeRecord r;
    serve::ServeStats& s = r.stats;
    r.scenario = require_str(rec, "scenario");
    r.params = num_map(rec, "params");
    s.submitted = require_u64(rec, "submitted");
    s.ok = require_u64(rec, "ok");
    s.expired = require_u64(rec, "expired");
    s.shed = require_u64(rec, "shed");
    s.wrong = require_u64(rec, "wrong");
    s.attempts = require_u64(rec, "attempts");
    s.retries = require_u64(rec, "retries");
    s.hedges = require_u64(rec, "hedges");
    s.batches = require_u64(rec, "batches");
    s.probes = require_u64(rec, "probes");
    s.breaker_trips = require_u64(rec, "breaker_trips");
    s.faults_injected = require_u64(rec, "faults_injected");
    s.degraded = require_u64(rec, "degraded");
    s.makespan_us = require_num(rec, "makespan_us");
    s.qps_ok = require_num(rec, "qps_ok");
    s.p50_us = require_num(rec, "p50_us");
    s.p95_us = require_num(rec, "p95_us");
    s.p99_us = require_num(rec, "p99_us");
    s.mean_us = require_num(rec, "mean_us");
    s.max_us = require_num(rec, "max_us");
    const JsonObject& split = require_obj(rec, "p99_split");
    s.p99_queue_us = require_num(split, "queue");
    s.p99_batch_us = require_num(split, "batch");
    s.p99_exec_us = require_num(split, "exec");
    s.p99_retry_us = require_num(split, "retry");
    s.device_cycles_total = require_num(rec, "device_cycles_total");
    s.fault_device_cycles_total = require_num(rec, "fault_device_cycles_total");
    s.launches_total = require_u64(rec, "launches_total");
    if (const auto it = rec.find("tenants"); it != rec.end()) {
      for (const JsonValue& tv : as_array(it->second, "serve JSON 'tenants'")) {
        const JsonObject& tobj = as_object(tv, "serve JSON tenant");
        serve::TenantUsage t;
        t.tenant = static_cast<std::uint32_t>(require_u64(tobj, "tenant"));
        t.requests = require_u64(tobj, "requests");
        t.ok = require_u64(tobj, "ok");
        t.launches = require_u64(tobj, "launches");
        t.retries = require_u64(tobj, "retries");
        t.device_cycles = require_num(tobj, "device_cycles");
        t.fault_device_cycles = require_num(tobj, "fault_device_cycles");
        r.tenants.push_back(t);
      }
    }
    r.extra = num_map(rec, "extra");
    r.volatile_extra = num_map(rec, "extra_volatile");
    if (const auto it = rec.find("telemetry"); it != rec.end()) {
      for (const JsonValue& sv :
           as_array(it->second, "serve JSON 'telemetry'")) {
        const JsonObject& sobj = as_object(sv, "serve JSON telemetry series");
        serve::TimeSeries ts;
        ts.name = require_str(sobj, "name");
        ts.unit = require_str(sobj, "unit");
        for (const JsonValue& pv : require_arr(sobj, "points")) {
          if (!pv.is_array() || pv.array().size() != 2 ||
              !pv.array()[0].is_number() || !pv.array()[1].is_number()) {
            throw std::runtime_error("serve JSON series '" + ts.name +
                                     "' point is not a [t, value] pair");
          }
          ts.points.push_back(
              {pv.array()[0].number(), pv.array()[1].number()});
        }
        r.telemetry.push_back(std::move(ts));
      }
    }
    result.serve.push_back(std::move(r));
  }
  return result;
}

std::string write_serve_file(const SuiteResult& result,
                             const std::string& dir) {
  return write_file(dir, "SERVE_" + result.suite + ".json", "serve",
                    to_serve_json(result));
}

SuiteResult load_serve_file(const std::string& path) {
  return load_file(path, "serve", &parse_serve_json);
}

namespace {

// ---------------------------------------------------------------------------
// Profile (PROF_<suite>.json) serialization helpers. Histogram buckets and
// lane-histogram slots serialize sparsely (nonzero entries only) as
// index-keyed objects, keeping smoke-scale files small and diffable.

/// Appends one `"index": value` entry of a sparse index-keyed map. Built
/// with `+=`: GCC 12 reports a false -Wrestrict on `"literal" + string&&`.
void append_index_entry(std::string& out, std::uint64_t index,
                        const std::string& value) {
  out += '"';
  out += std::to_string(index);
  out += "\": ";
  out += value;
}

std::string hist_json(const simt::ProfHistogram& h) {
  std::string out = "{\"count\": " + json_num(h.count) +
                    ", \"sum\": " + json_num(h.sum) +
                    ", \"min\": " + json_num(h.min_value) +
                    ", \"max\": " + json_num(h.max_value) + ", \"buckets\": {";
  bool first = true;
  for (int b = 0; b < simt::ProfHistogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) out += ", ";
    first = false;
    append_index_entry(out, b, json_num(h.buckets[b]));
  }
  out += "}}";
  return out;
}

/// Parses a decimal key of a sparse index-keyed map ("12").
std::uint32_t parse_index_key(const std::string& key) {
  std::uint32_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(key.data(), key.data() + key.size(), v);
  if (ec != std::errc() || ptr != key.data() + key.size()) {
    throw std::runtime_error("profile JSON key '" + key +
                             "' is not an index");
  }
  return v;
}

simt::ProfHistogram parse_hist(const JsonObject& obj) {
  simt::ProfHistogram h;
  h.count = require_u64(obj, "count");
  h.sum = require_num(obj, "sum");
  h.min_value = require_num(obj, "min");
  h.max_value = require_num(obj, "max");
  for (const auto& [k, v] : num_map(obj, "buckets")) {
    const std::uint32_t b = parse_index_key(k);
    if (b < simt::ProfHistogram::kBuckets) {
      h.buckets[b] = static_cast<std::uint64_t>(v);
    }
  }
  return h;
}

std::string u32_map_json(const std::map<std::uint32_t, std::uint64_t>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    append_index_entry(out, k, json_num(v));
  }
  out += "}";
  return out;
}

std::map<std::uint32_t, std::uint64_t> parse_u32_map(const JsonObject& rec,
                                                     const std::string& key) {
  std::map<std::uint32_t, std::uint64_t> out;
  for (const auto& [k, v] : num_map(rec, key)) {
    out[parse_index_key(k)] = static_cast<std::uint64_t>(v);
  }
  return out;
}

// -- Critical-path sections -------------------------------------------------

/// Longest binding chain serialized per profile; the tail (nearest the
/// makespan) is kept because the chain is read top-down from the last-
/// finishing grid. The cap is deterministic, so capped files stay
/// byte-stable; `chain_dropped` records how many leading segments were cut.
constexpr std::size_t kMaxSerializedChain = 512;

std::string crit_attr_json(const simt::CritAttribution& a) {
  std::string out = "{";
  for (int i = 0; i < simt::kCritCategoryCount; ++i) {
    if (i > 0) out += ", ";
    out += "\"";
    out += std::string(
        simt::to_string(static_cast<simt::CritCategory>(i)));
    out += "\": " + json_num(a.cycles[i]);
  }
  out += "}";
  return out;
}

simt::CritAttribution parse_crit_attr(const JsonObject& obj) {
  simt::CritAttribution a;
  for (const auto& [name, value] : obj) {
    (void)value;
    simt::CritCategory cat;
    if (simt::parse_crit_category(name, cat)) a[cat] = require_num(obj, name);
  }
  return a;
}

}  // namespace

std::string to_json(const SuiteProfile& profile) {
  const simt::Profile& p = profile.prof;
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": " + std::to_string(kProfileSchemaVersion) +
         ",\n";
  out += "  \"generator\": \"nestpar_bench\",\n";
  out += "  \"kind\": \"profile\",\n";
  out += "  \"suite\": " + json_str(profile.suite) + ",\n";
  out += "  \"total_cycles\": " + json_num(p.total_cycles) + ",\n";
  out += "  \"reports\": " + json_num(p.reports) + ",\n";
  out += "  \"grids\": " + json_num(p.grids) + ",\n";
  out += "  \"device_grids\": " + json_num(p.device_grids) + ",\n";
  out += "  \"depth_grids\": " + u32_map_json(p.depth_grids) + ",\n";
  out += "  \"kernels\": [";
  for (std::size_t i = 0; i < p.kernels.size(); ++i) {
    const simt::KernelProfile& k = p.kernels[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + json_str(k.name) + ",\n     ";
    out += "\"invocations\": " + json_num(k.invocations) + ", ";
    out += "\"busy_cycles\": " + json_num(k.busy_cycles) + ",\n     ";
    out += "\"launch_max_cycles\": " + json_num(k.launch_max_cycles) + ", ";
    out += "\"launch_mean_cycles\": " + json_num(k.launch_mean_cycles) +
           ",\n     ";
    out += "\"block_cycles\": " + hist_json(k.block_cycles) + ",\n     ";
    out += "\"child_grid_blocks\": " + hist_json(k.child_grid_blocks) +
           ",\n     ";
    out += "\"lane_hist\": {";
    bool first = true;
    for (int s = 0; s < simt::kLaneHistSlots; ++s) {
      if (k.lane_hist[s] == 0) continue;
      if (!first) out += ", ";
      first = false;
      append_index_entry(out, s, json_num(k.lane_hist[s]));
    }
    out += "},\n     ";
    out += "\"warp_steps\": " + json_num(k.warp_steps) + ", ";
    out += "\"active_lane_ops\": " + json_num(k.active_lane_ops) + ",\n     ";
    out += "\"nest_depths\": " + u32_map_json(k.nest_depth_grids) +
           ",\n     ";
    out += "\"robustness\": " + k.robustness.to_json() + "}";
  }
  out += "\n  ],\n";
  out += "  \"tracks\": {";
  {
    bool first = true;
    for (const auto& [name, hist] : p.tracks) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    " + json_str(name) + ": " + hist_json(hist);
    }
  }
  out += "\n  },\n";
  out += "  \"counters\": [";
  for (std::size_t i = 0; i < p.counters.size(); ++i) {
    const simt::CounterSample& c = p.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"track\": " + json_str(c.track) +
           ", \"value\": " + json_num(c.value) +
           ", \"node\": " + json_num(c.node) + "}";
  }
  out += "\n  ],\n";
  out += "  \"instants\": [";
  for (std::size_t i = 0; i < p.instants.size(); ++i) {
    const simt::InstantSample& e = p.instants[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + json_str(e.name) +
           ", \"cat\": " + json_str(e.cat) +
           ", \"node\": " + json_num(e.node) + "}";
  }
  out += "\n  ],\n";
  // Critical-path decomposition (see src/simt/critpath.h).
  const std::size_t chain_total = p.crit_chain.size();
  const std::size_t chain_from =
      chain_total > kMaxSerializedChain ? chain_total - kMaxSerializedChain
                                        : 0;
  out += "  \"critical_path\": {\n";
  out += "    \"makespan\": " + json_num(p.crit_chain_makespan) + ",\n";
  out += "    \"chain_dropped\": " + json_num(chain_from) + ",\n";
  out += "    \"chain\": [";
  for (std::size_t i = chain_from; i < chain_total; ++i) {
    const simt::CritSegment& s = p.crit_chain[i];
    out += i == chain_from ? "\n" : ",\n";
    out += "      {\"kernel\": " + json_str(s.kernel) +
           ", \"node\": " + json_num(static_cast<std::uint64_t>(s.node)) +
           ", \"depth\": " + json_num(static_cast<std::uint64_t>(s.depth)) +
           ", \"category\": \"" +
           std::string(simt::to_string(s.category)) +
           "\", \"begin\": " + json_num(s.begin) +
           ", \"cycles\": " + json_num(s.cycles) + "}";
  }
  out += "\n    ],\n";
  out += "    \"folded\": ";
  {
    std::string folded = "{";
    bool first = true;
    for (const auto& [stack, cycles] : p.crit_folded) {
      folded += first ? "\n      " : ",\n      ";
      first = false;
      folded += json_str(stack) + ": " + json_num(cycles);
    }
    folded += "\n    }";
    out += folded;
  }
  out += "\n  },\n";
  out += "  \"attribution\": {\n";
  out += "    \"total\": " + crit_attr_json(p.crit_total) + ",\n";
  out += "    \"kernels\": {";
  {
    bool first = true;
    for (const auto& [name, attr] : p.crit_kernels) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "      " + json_str(name) + ": " + crit_attr_json(attr);
    }
  }
  out += "\n    }\n";
  out += "  }\n}\n";
  return out;
}

SuiteProfile parse_profile_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonObject& root = as_object(doc, "profile JSON root");
  check_schema_version(root, "profile", kProfileSchemaVersion);
  SuiteProfile profile;
  profile.suite = require_str(root, "suite");
  simt::Profile& p = profile.prof;
  p.total_cycles = require_num(root, "total_cycles");
  p.reports = require_u64(root, "reports");
  p.grids = require_u64(root, "grids");
  p.device_grids = require_u64(root, "device_grids");
  p.depth_grids = parse_u32_map(root, "depth_grids");

  for (const JsonValue& item : require_arr(root, "kernels")) {
    const JsonObject& rec = as_object(item, "profile JSON kernel entry");
    simt::KernelProfile k;
    k.name = require_str(rec, "name");
    k.invocations = require_u64(rec, "invocations");
    k.busy_cycles = require_num(rec, "busy_cycles");
    k.launch_max_cycles = require_num(rec, "launch_max_cycles");
    k.launch_mean_cycles = require_num(rec, "launch_mean_cycles");
    k.block_cycles = parse_hist(require_obj(rec, "block_cycles"));
    k.child_grid_blocks = parse_hist(require_obj(rec, "child_grid_blocks"));
    for (const auto& [slot, n] : num_map(rec, "lane_hist")) {
      const std::uint32_t s = parse_index_key(slot);
      if (s < simt::kLaneHistSlots) {
        k.lane_hist[s] = static_cast<std::uint64_t>(n);
      }
    }
    k.warp_steps = require_u64(rec, "warp_steps");
    k.active_lane_ops = require_u64(rec, "active_lane_ops");
    k.nest_depth_grids = parse_u32_map(rec, "nest_depths");
    k.robustness = parse_robustness(rec);
    p.kernels.push_back(std::move(k));
  }

  for (const auto& [name, hist] : require_obj(root, "tracks")) {
    p.tracks[name] =
        parse_hist(as_object(hist, "profile JSON track '" + name + "'"));
  }
  for (const JsonValue& item : require_arr(root, "counters")) {
    const JsonObject& rec = as_object(item, "profile JSON counter");
    p.counters.push_back(simt::CounterSample{require_str(rec, "track"),
                                             require_num(rec, "value"),
                                             require_u64(rec, "node")});
  }
  for (const JsonValue& item : require_arr(root, "instants")) {
    const JsonObject& rec = as_object(item, "profile JSON instant");
    p.instants.push_back(simt::InstantSample{require_str(rec, "name"),
                                             require_str(rec, "cat"),
                                             require_u64(rec, "node")});
  }

  const JsonObject& cp = require_obj(root, "critical_path");
  p.crit_chain_makespan = require_num(cp, "makespan");
  for (const JsonValue& item : require_arr(cp, "chain")) {
    const JsonObject& rec = as_object(item, "profile JSON chain segment");
    simt::CritSegment seg;
    seg.kernel = require_str(rec, "kernel");
    seg.node = static_cast<std::uint32_t>(require_u64(rec, "node"));
    seg.depth = static_cast<std::uint32_t>(require_u64(rec, "depth"));
    const std::string cat = require_str(rec, "category");
    if (!simt::parse_crit_category(cat, seg.category)) {
      throw std::runtime_error("profile JSON unknown chain category '" + cat +
                               "'");
    }
    seg.begin = require_num(rec, "begin");
    seg.cycles = require_num(rec, "cycles");
    p.crit_chain.push_back(std::move(seg));
  }
  for (const auto& [stack, cycles] : num_map(cp, "folded")) {
    p.crit_folded[stack] = cycles;
  }

  const JsonObject& attr = require_obj(root, "attribution");
  p.crit_total = parse_crit_attr(require_obj(attr, "total"));
  for (const auto& [name, value] : require_obj(attr, "kernels")) {
    p.crit_kernels[name] = parse_crit_attr(
        as_object(value, "profile JSON attribution '" + name + "'"));
  }
  return profile;
}

std::string write_profile_file(const SuiteProfile& profile,
                               const std::string& dir) {
  return write_file(dir, "PROF_" + profile.suite + ".json", "profile",
                    to_json(profile));
}

SuiteProfile load_profile_file(const std::string& path) {
  return load_file(path, "profile", &parse_profile_json);
}

std::string strip_volatile(std::string_view text) {
  // The writers put "extra_volatile" last in its record, after a comma,
  // with a flat object as its value.
  constexpr std::string_view kKey = "\"extra_volatile\"";
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  for (std::size_t k = text.find(kKey); k != std::string_view::npos;
       k = text.find(kKey, pos)) {
    const std::size_t comma = text.rfind(',', k);
    const std::size_t cut = comma == std::string_view::npos || comma < pos
                                ? k
                                : comma;
    out.append(text.substr(pos, cut - pos));
    // The first '}' outside a string closes the object; its keys are JSON
    // strings and may hold braces.
    std::size_t i = text.find('{', k + kKey.size());
    for (bool in_string = false; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '}') {
        break;
      }
    }
    pos = i < text.size() ? i + 1 : text.size();
  }
  out.append(text.substr(pos));
  return out;
}

namespace {

/// Lines as the report counts them: a last line without '\n' still counts.
std::size_t count_lines(std::string_view text) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.end(), '\n')) +
         (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// The line that starts at `begin`, clipped to kWindow characters around
/// column `col` when it is longer.
std::string clipped_line(std::string_view text, std::size_t begin,
                         std::size_t col) {
  constexpr std::size_t kWindow = 160;
  const std::string_view rest = text.substr(begin);
  const std::string_view line = rest.substr(0, rest.find('\n'));
  if (line.size() <= kWindow) return std::string(line);
  const std::size_t from =
      std::min(col > kWindow / 2 ? col - kWindow / 2 : 0,
               line.size() - kWindow);
  return (from > 0 ? "..." : "") + std::string(line.substr(from, kWindow)) +
         (from + kWindow < line.size() ? "..." : "");
}

}  // namespace

std::optional<ByteDiff> first_difference(std::string_view baseline,
                                         std::string_view current) {
  const std::string b = strip_volatile(baseline);
  const std::string c = strip_volatile(current);
  if (b == c) return std::nullopt;
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(b.begin(), b.end(), c.begin(), c.end()).first -
      b.begin());
  // Both sides agree up to `at`, so the line starts at the same offset.
  const std::size_t nl = at == 0 ? std::string::npos : b.rfind('\n', at - 1);
  const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
  ByteDiff d;
  d.line = 1 + static_cast<std::size_t>(
                   std::count(b.begin(), b.begin() + begin, '\n'));
  d.baseline_line = clipped_line(b, begin, at - begin);
  d.current_line = clipped_line(c, begin, at - begin);
  d.baseline_lines = count_lines(b);
  d.current_lines = count_lines(c);
  return d;
}

}  // namespace nestpar::bench
