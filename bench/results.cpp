#include "results.h"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

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

std::string ServeRecord::key() const {
  std::string k = scenario + "|";
  bool first = true;
  for (const auto& [name, value] : params) {
    if (!first) k += ',';
    first = false;
    k += name + "=" + json_num(value);
  }
  return k;
}

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
          out += "[" + json_num(ts.points[pi].t_us) + ", " +
                 json_num(ts.points[pi].value) + "]";
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
    out += "\"" + std::to_string(b) + "\": " + json_num(h.buckets[b]);
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
    out += "\"" + std::to_string(k) + "\": " + json_num(v);
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
  const simt::ProfileSnapshot& p = profile.prof;
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
      out += "\"" + std::to_string(s) + "\": " + json_num(k.lane_hist[s]);
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
  simt::ProfileSnapshot& p = profile.prof;
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

bool CompareReport::has_regression() const {
  if (missing > 0) return true;
  for (const MetricDelta& d : deltas) {
    if (d.regression) return true;
  }
  return false;
}

namespace {

double rel_delta(double baseline, double current) {
  const double denom = std::max(std::abs(baseline), 1e-12);
  return (current - baseline) / denom;
}

/// Append a delta row when the metric moved; `bad_direction` is +1 when an
/// increase is a regression (cycles, launches, faults), -1 when a decrease
/// is (warp efficiency), and 0 when *any* move beyond the threshold is a
/// regression (two-sided: deterministic telemetry series where drift in
/// either direction means the schedule changed — there is no "improvement").
void diff_metric(CompareReport& report, const std::string& suite,
                 const std::string& key, const std::string& metric,
                 double baseline, double current, int bad_direction,
                 double threshold) {
  if (baseline == current) return;
  MetricDelta d;
  d.suite = suite;
  d.key = key;
  d.metric = metric;
  d.baseline = baseline;
  d.current = current;
  d.rel_delta = rel_delta(baseline, current);
  if (bad_direction == 0) {
    d.regression = std::abs(d.rel_delta) > threshold;
    d.improvement = false;
  } else {
    d.regression = d.rel_delta * bad_direction > threshold;
    d.improvement = d.rel_delta * bad_direction < -threshold;
  }
  report.deltas.push_back(std::move(d));
}

}  // namespace

CompareReport compare_results(const SuiteResult& baseline,
                              const SuiteResult& current,
                              const CompareOptions& opt) {
  CompareReport report;
  std::map<std::string, const Measurement*> current_by_key;
  for (const Measurement& m : current.measurements) {
    current_by_key[m.key()] = &m;
  }
  std::map<std::string, bool> baseline_keys;
  for (const Measurement& b : baseline.measurements) {
    const std::string key = b.key();
    baseline_keys[key] = true;
    const auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      ++report.missing;
      continue;
    }
    ++report.matched;
    const Measurement& c = *it->second;
    const auto gate = [&](const std::string& metric, double bv, double cv,
                          int bad_direction) {
      diff_metric(report, baseline.suite, key, metric, bv, cv, bad_direction,
                  opt.threshold);
    };
    gate("cycles", b.cycles, c.cycles, +1);
    gate("warp_efficiency", b.warp_efficiency, c.warp_efficiency, -1);
    gate("device_launches", b.device_launches, c.device_launches, +1);
    gate("host_launches", b.host_launches, c.host_launches, +1);
    gate("degraded", b.robustness.degraded, c.robustness.degraded, +1);
    gate("refused", b.robustness.refused_total(),
         c.robustness.refused_total(), +1);
  }
  for (const Measurement& c : current.measurements) {
    if (!baseline_keys.count(c.key())) ++report.added;
  }
  return report;
}

CompareReport compare_serve(const SuiteResult& baseline,
                            const SuiteResult& current,
                            const CompareOptions& opt) {
  CompareReport report;
  std::map<std::string, const ServeRecord*> current_by_key;
  for (const ServeRecord& r : current.serve) {
    current_by_key[r.key()] = &r;
  }
  std::map<std::string, bool> baseline_keys;
  for (const ServeRecord& b : baseline.serve) {
    const std::string key = b.key();
    baseline_keys[key] = true;
    const auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      ++report.missing;
      continue;
    }
    ++report.matched;
    const ServeRecord& c = *it->second;
    const serve::ServeStats& bs = b.stats;
    const serve::ServeStats& cs = c.stats;
    const std::string suite = baseline.suite + " [serve]";
    const auto gate = [&](const std::string& metric, double bv, double cv,
                          int bad_direction) {
      diff_metric(report, suite, key, metric, bv, cv, bad_direction,
                  opt.threshold);
    };
    gate("wrong", bs.wrong, cs.wrong, +1);
    gate("ok", bs.ok, cs.ok, -1);
    gate("expired", bs.expired, cs.expired, +1);
    gate("shed", bs.shed, cs.shed, +1);
    gate("retries", bs.retries, cs.retries, +1);
    gate("breaker_trips", bs.breaker_trips, cs.breaker_trips, +1);
    gate("faults_injected", bs.faults_injected, cs.faults_injected, +1);
    gate("p50_us", bs.p50_us, cs.p50_us, +1);
    gate("p99_us", bs.p99_us, cs.p99_us, +1);
    gate("qps_ok", bs.qps_ok, cs.qps_ok, -1);
    // Tail-latency attribution: growth in any single phase's share is a
    // regression even when the total p99 held (it means time moved between
    // phases — a scheduling change worth a look).
    gate("p99_queue_us", bs.p99_queue_us, cs.p99_queue_us, +1);
    gate("p99_batch_us", bs.p99_batch_us, cs.p99_batch_us, +1);
    gate("p99_exec_us", bs.p99_exec_us, cs.p99_exec_us, +1);
    gate("p99_retry_us", bs.p99_retry_us, cs.p99_retry_us, +1);
    // Device-cost attribution: total modeled device cycles and launches are
    // pure functions of the schedule, so they gate two-sided — any drift
    // means the scheduled work changed. Per-tenant rollups match by tenant
    // id; a tenant the current run dropped diffs against zero.
    gate("device_cycles_total", bs.device_cycles_total,
         cs.device_cycles_total, 0);
    gate("fault_device_cycles_total", bs.fault_device_cycles_total,
         cs.fault_device_cycles_total, 0);
    gate("launches_total", bs.launches_total, cs.launches_total, 0);
    for (const serve::TenantUsage& bt : b.tenants) {
      serve::TenantUsage cv;
      for (const serve::TenantUsage& cand : c.tenants) {
        if (cand.tenant == bt.tenant) {
          cv = cand;
          break;
        }
      }
      const std::string prefix = "tenant/" + std::to_string(bt.tenant) + "/";
      gate(prefix + "requests", bt.requests, cv.requests, 0);
      gate(prefix + "ok", bt.ok, cv.ok, 0);
      gate(prefix + "launches", bt.launches, cv.launches, 0);
      gate(prefix + "retries", bt.retries, cv.retries, 0);
      gate(prefix + "device_cycles", bt.device_cycles, cv.device_cycles, 0);
      gate(prefix + "fault_device_cycles", bt.fault_device_cycles,
           cv.fault_device_cycles, 0);
    }
    // Telemetry series rollups, two-sided: the series are pure functions of
    // the schedule, so any drift (up or down) in sample count, peak, or mean
    // flags a behavioral change. A series the current run dropped entirely
    // diffs its sample count against zero.
    for (const serve::TimeSeries& bts : b.telemetry) {
      const serve::TimeSeries* cts = nullptr;
      for (const serve::TimeSeries& cand : c.telemetry) {
        if (cand.name == bts.name) {
          cts = &cand;
          break;
        }
      }
      const std::string prefix = "telemetry/" + bts.name + "/";
      gate(prefix + "samples", bts.points.size(),
           cts ? cts->points.size() : 0, 0);
      if (cts != nullptr) {
        gate(prefix + "max", bts.max_value(), cts->max_value(), 0);
        gate(prefix + "mean", bts.mean_value(), cts->mean_value(), 0);
      }
    }
  }
  for (const ServeRecord& c : current.serve) {
    if (!baseline_keys.count(c.key())) ++report.added;
  }
  return report;
}

void merge_compare_reports(CompareReport& a, const CompareReport& b) {
  a.deltas.insert(a.deltas.end(), b.deltas.begin(), b.deltas.end());
  a.matched += b.matched;
  a.missing += b.missing;
  a.added += b.added;
}

}  // namespace nestpar::bench
