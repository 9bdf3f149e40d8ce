// nestpar_serve: drive the src/serve runtime once and print a full serving
// report — terminal-status counts, latency percentiles, per-shard activity,
// and every breaker transition on the virtual timeline. The interactive twin
// of the serve_latency bench suite: same deterministic runtime, human-first
// output for poking at one configuration.
//
//   nestpar_serve [--requests=N] [--qps=Q] [--shards=N] [--queue=N]
//                 [--batch=N] [--linger-us=X] [--deadline-us=X]
//                 [--attempts=N] [--no-hedge] [--tmpl=NAME] [--graphs=N]
//                 [--scale=F] [--seed=N] [--num-tenants=N] [--faults=SPEC]
//                 [--completions] [--trace=FILE] [--metrics] [--tenants]
//                 [--json] [--metrics-interval-us=X]
//
// --trace writes the run's unified cross-layer trace (request spans, per-grid
// device slices, telemetry counters, and the per-request device-cycle
// attribution record) as a Chrome/Perfetto trace-event file; --metrics
// appends a latency-attribution report to stdout; --tenants appends the
// per-tenant device-cost rollup. All are pure observers: with the flags
// absent, stdout is byte-identical to earlier builds. --json replaces the
// human report with one machine-readable JSON document (stable field order,
// round-trip number formatting) for scripting and CI gates.
//
// Exit codes: 0 success (all queries terminal, zero wrong results),
// 1 verification or accounting failure, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json.h"
#include "src/serve/pool.h"
#include "src/serve/server.h"
#include "src/serve/trace.h"
#include "src/simt/exec_policy.h"
#include "src/simt/log.h"

using namespace nestpar;

namespace {

constexpr const char* kUsage =
    "usage: nestpar_serve [--requests=N] [--qps=Q] [--shards=N] [--queue=N]\n"
    "  [--batch=N] [--linger-us=X] [--deadline-us=X] [--attempts=N]\n"
    "  [--no-hedge] [--tmpl=NAME] [--graphs=N] [--scale=F] [--seed=N]\n"
    "  [--num-tenants=N] [--faults=SPEC] [--completions] [--trace=FILE]\n"
    "  [--metrics] [--tenants] [--json] [--metrics-interval-us=X]\n"
    "  --requests=N     queries to serve (default 200)\n"
    "  --qps=Q          open-loop arrival rate (default 3000)\n"
    "  --shards=N       simulated devices (default 4)\n"
    "  --queue=N        per-shard queue capacity (default 24)\n"
    "  --batch=N        max queries per consolidated dispatch (default 8)\n"
    "  --linger-us=X    partial-batch linger window (default 200)\n"
    "  --deadline-us=X  per-query latency budget (default 150000)\n"
    "  --attempts=N     execution attempts per query (default 3)\n"
    "  --no-hedge       back off in place instead of sibling re-dispatch\n"
    "  --tmpl=NAME      loop template for query execution (cons-grid)\n"
    "  --graphs=N       subgraph pool size (default 4)\n"
    "  --scale=F        subgraph size scale (default 0.5)\n"
    "  --seed=N         workload seed (default 2026)\n"
    "  --num-tenants=N  tenants the workload spreads over (default 4)\n"
    "  --faults=SPEC    fault injection (NESTPAR_FAULTS syntax; default from\n"
    "                   the environment)\n"
    "  --completions    also print one line per completed request\n"
    "  --trace=FILE     write the unified cross-layer trace (request spans,\n"
    "                   per-grid device slices, telemetry, attribution) as a\n"
    "                   Chrome/Perfetto trace-event JSON file\n"
    "  --metrics        print latency attribution: slowest requests with\n"
    "                   phase split + bottleneck verdict, per-shard\n"
    "                   utilization, SLO attainment\n"
    "  --tenants        print the per-tenant device-cost rollup (requests,\n"
    "                   launches, retries, attributed device cycles)\n"
    "  --json           emit the run report as one JSON document instead of\n"
    "                   the human tables (includes tenants + device cycles)\n"
    "  --metrics-interval-us=X  telemetry sampling tick in virtual us\n"
    "                   (default 1000; used by --trace and --metrics)";

/// Append the --metrics report: where the slow requests spent their time,
/// how busy each shard was, and how the run did against its deadline SLO.
void print_metrics(const serve::Server& server, const serve::ServeStats& s,
                   double deadline_us) {
  std::printf("\nlatency attribution (slowest requests):\n");
  std::printf("  %8s %-8s %10s %10s %10s %10s %10s  %s\n", "request", "status",
              "latency", "queue", "batch", "exec", "retry", "verdict");
  std::vector<const serve::Completion*> by_latency;
  by_latency.reserve(server.completions().size());
  for (const serve::Completion& c : server.completions()) {
    by_latency.push_back(&c);
  }
  std::sort(by_latency.begin(), by_latency.end(),
            [](const serve::Completion* a, const serve::Completion* b) {
              if (a->latency_us != b->latency_us) {
                return a->latency_us > b->latency_us;
              }
              return a->id < b->id;  // deterministic tie-break
            });
  const std::size_t top = std::min<std::size_t>(5, by_latency.size());
  for (std::size_t i = 0; i < top; ++i) {
    const serve::Completion& c = *by_latency[i];
    std::printf("  #%7llu %-8s %9.0fus %9.0fus %9.0fus %9.0fus %9.0fus  %s\n",
                static_cast<unsigned long long>(c.id),
                std::string(serve::to_string(c.status)).c_str(), c.latency_us,
                c.queue_us, c.batch_us, c.exec_us, c.retry_us,
                c.verdict.empty() ? "-" : c.verdict.c_str());
  }
  std::printf("  p99 split: queue=%.0fus batch=%.0fus exec=%.0fus "
              "retry=%.0fus (p99=%.0fus)\n",
              s.p99_queue_us, s.p99_batch_us, s.p99_exec_us, s.p99_retry_us,
              s.p99_us);

  std::printf("\nshard utilization (busy / makespan):\n");
  for (const serve::Shard& sh : server.shards()) {
    const double frac =
        s.makespan_us > 0.0 ? sh.counters().busy_us / s.makespan_us : 0.0;
    std::printf("  shard %d: %6.1f%% (%.0f us busy)\n", sh.id(), frac * 100.0,
                sh.counters().busy_us);
  }

  double burn_sum = 0.0;
  std::uint64_t burn_n = 0;
  for (const serve::Completion& c : server.completions()) {
    if (c.status == serve::RequestStatus::kOk && deadline_us > 0.0) {
      burn_sum += c.latency_us / deadline_us;
      ++burn_n;
    }
  }
  const double attained =
      s.submitted > 0
          ? static_cast<double>(s.ok) / static_cast<double>(s.submitted)
          : 0.0;
  std::printf("\nSLO attainment: %.1f%% ok (%llu/%llu)", attained * 100.0,
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.submitted));
  if (burn_n > 0) {
    std::printf(", mean deadline-budget burn %.1f%% over Ok",
                burn_sum / static_cast<double>(burn_n) * 100.0);
  }
  std::printf("\n");
}

/// Append the --tenants report: who burned the device. Cycles are modeled
/// device cycles attributed to each tenant's completed requests by the
/// scheduler's conservation-exact tiling; the per-tenant column sums to the
/// run's device_cycles_total (up to float regrouping across tenants).
void print_tenants(const serve::Server& server, const serve::ServeStats& s) {
  std::printf("\nper-tenant device cost:\n");
  std::printf("  %6s %8s %6s %8s %7s %16s %14s %6s\n", "tenant", "requests",
              "ok", "launches", "retries", "device-cycles", "fault-cycles",
              "share");
  for (const serve::TenantUsage& t : server.tenant_usage()) {
    const double share =
        s.device_cycles_total > 0.0 ? t.device_cycles / s.device_cycles_total
                                    : 0.0;
    std::printf("  %6u %8llu %6llu %8llu %7llu %16.0f %14.0f %5.1f%%\n",
                t.tenant, static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.ok),
                static_cast<unsigned long long>(t.launches),
                static_cast<unsigned long long>(t.retries), t.device_cycles,
                t.fault_device_cycles, share * 100.0);
  }
  std::printf("  total: %.0f device cycles over %llu launches "
              "(%.0f fault-burned)\n",
              s.device_cycles_total,
              static_cast<unsigned long long>(s.launches_total),
              s.fault_device_cycles_total);
}

/// The --json report: the whole run outcome as one machine-readable document
/// (stable field order; round-trip number formatting via bench::json_num, so
/// attributed cycles survive a parse bit-exactly).
void print_json(const serve::Server& server, const serve::ServeStats& s,
                const serve::ServeConfig& cfg, int requests, double qps) {
  using bench::json_num;
  std::string out;
  out += "{\n";
  out += "  \"generator\": \"nestpar_serve\",\n";
  out += "  \"config\": {\"requests\": " + json_num(std::uint64_t(requests)) +
         ", \"qps\": " + json_num(qps) +
         ", \"shards\": " + json_num(std::uint64_t(cfg.num_shards)) +
         ", \"num_tenants\": " + json_num(std::uint64_t(cfg.num_tenants)) +
         ", \"chaos\": " + (cfg.faults.enabled() ? "true" : "false") + "},\n";
  out += "  \"outcome\": {\"submitted\": " + json_num(s.submitted) +
         ", \"ok\": " + json_num(s.ok) +
         ", \"expired\": " + json_num(s.expired) +
         ", \"shed\": " + json_num(s.shed) +
         ", \"wrong\": " + json_num(s.wrong) + "},\n";
  out += "  \"activity\": {\"attempts\": " + json_num(s.attempts) +
         ", \"retries\": " + json_num(s.retries) +
         ", \"hedges\": " + json_num(s.hedges) +
         ", \"batches\": " + json_num(s.batches) +
         ", \"probes\": " + json_num(s.probes) +
         ", \"breaker_trips\": " + json_num(s.breaker_trips) +
         ", \"faults_injected\": " + json_num(s.faults_injected) +
         ", \"degraded\": " + json_num(s.degraded) + "},\n";
  out += "  \"latency_us\": {\"p50\": " + json_num(s.p50_us) +
         ", \"p95\": " + json_num(s.p95_us) +
         ", \"p99\": " + json_num(s.p99_us) +
         ", \"mean\": " + json_num(s.mean_us) +
         ", \"max\": " + json_num(s.max_us) +
         ", \"p99_split\": {\"queue\": " + json_num(s.p99_queue_us) +
         ", \"batch\": " + json_num(s.p99_batch_us) +
         ", \"exec\": " + json_num(s.p99_exec_us) +
         ", \"retry\": " + json_num(s.p99_retry_us) + "}},\n";
  out += "  \"throughput\": {\"qps_ok\": " + json_num(s.qps_ok) +
         ", \"makespan_us\": " + json_num(s.makespan_us) + "},\n";
  out += "  \"device\": {\"cycles_total\": " + json_num(s.device_cycles_total) +
         ", \"fault_cycles_total\": " +
         json_num(s.fault_device_cycles_total) +
         ", \"launches_total\": " + json_num(s.launches_total) + "},\n";
  out += "  \"tenants\": [";
  const std::vector<serve::TenantUsage>& tenants = server.tenant_usage();
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const serve::TenantUsage& t = tenants[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"tenant\": " + json_num(std::uint64_t(t.tenant)) +
           ", \"requests\": " + json_num(t.requests) +
           ", \"ok\": " + json_num(t.ok) +
           ", \"launches\": " + json_num(t.launches) +
           ", \"retries\": " + json_num(t.retries) +
           ", \"device_cycles\": " + json_num(t.device_cycles) +
           ", \"fault_device_cycles\": " + json_num(t.fault_device_cycles) +
           "}";
  }
  out += tenants.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

int run(const bench::Args& args) {
  const auto requests = static_cast<int>(args.get_int("requests", 200));
  const double qps = args.get_double("qps", 3000.0);

  serve::ServeConfig cfg;
  cfg.num_shards = static_cast<int>(args.get_int("shards", 4));
  cfg.queue_capacity = static_cast<int>(args.get_int("queue", 24));
  cfg.batch_max = static_cast<int>(args.get_int("batch", 8));
  cfg.batch_linger_us = args.get_double("linger-us", 200.0);
  cfg.deadline_us = args.get_double("deadline-us", 150000.0);
  cfg.max_attempts = static_cast<int>(args.get_int("attempts", 3));
  cfg.hedge = !args.get_flag("no-hedge");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2026));
  cfg.num_tenants = static_cast<int>(args.get_int("num-tenants", 4));
  cfg.tmpl = nested::parse_loop_template(args.get_string("tmpl", "cons-grid"));
  const std::string faults_spec = args.get_string("faults", "");
  cfg.faults = faults_spec.empty() ? simt::FaultConfig::from_env()
                                   : simt::FaultConfig::parse(faults_spec);

  const std::string trace_path = args.get_string("trace", "");
  const bool want_metrics = args.get_flag("metrics");
  const bool want_tenants = args.get_flag("tenants");
  const bool want_json = args.get_flag("json");
  cfg.trace = !trace_path.empty();
  // Telemetry sampling is a pure observer; enable it only when an output
  // surface (trace counters or the metrics report) will consume it, so a
  // plain run stays byte-for-byte what it always was.
  if (cfg.trace || want_metrics) {
    cfg.metrics_interval_us = args.get_double("metrics-interval-us", 1000.0);
  }

  serve::PoolSpec pspec;
  pspec.num_graphs = static_cast<int>(args.get_int("graphs", 4));
  pspec.scale = args.get_double("scale", 0.5);
  pspec.seed = cfg.seed ^ 0x700full;

  const serve::SubgraphPool pool(pspec);
  const std::vector<serve::Request> workload =
      serve::make_open_loop_workload(pool, cfg, requests, qps);
  serve::Server server(cfg, pool, simt::ExecPolicy::from_env());
  const serve::ServeStats s = server.run(workload);

  if (want_json) {
    print_json(server, s, cfg, requests, qps);
    if (!trace_path.empty()) {
      std::ofstream f(trace_path, std::ios::binary);
      if (!f) {
        simt::log::error("error: cannot open trace file '%s'\n",
                         trace_path.c_str());
        return 1;
      }
      serve::write_serve_trace(f, server.tracer(), &server.telemetry(),
                               cfg.num_shards, &server.completions());
    }
    if (s.wrong > 0 || s.ok + s.expired + s.shed != s.submitted) return 1;
    return 0;
  }

  std::printf("serving run: %d requests at %.0f qps over %d shard(s), "
              "template %s%s\n",
              requests, qps, cfg.num_shards,
              std::string(nested::name(cfg.tmpl)).c_str(),
              cfg.faults.enabled() ? " [chaos]" : "");
  std::printf("  outcome    ok=%llu expired=%llu shed=%llu wrong=%llu "
              "(submitted=%llu)\n",
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.expired),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.wrong),
              static_cast<unsigned long long>(s.submitted));
  std::printf("  activity   attempts=%llu retries=%llu hedges=%llu "
              "batches=%llu probes=%llu trips=%llu faults=%llu "
              "degraded=%llu\n",
              static_cast<unsigned long long>(s.attempts),
              static_cast<unsigned long long>(s.retries),
              static_cast<unsigned long long>(s.hedges),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.probes),
              static_cast<unsigned long long>(s.breaker_trips),
              static_cast<unsigned long long>(s.faults_injected),
              static_cast<unsigned long long>(s.degraded));
  std::printf("  latency-us p50=%.0f p95=%.0f p99=%.0f mean=%.0f max=%.0f\n",
              s.p50_us, s.p95_us, s.p99_us, s.mean_us, s.max_us);
  std::printf("  throughput %.0f ok-qps over %.1f ms makespan\n", s.qps_ok,
              s.makespan_us / 1000.0);

  std::printf("\nper-shard:\n");
  for (const serve::Shard& sh : server.shards()) {
    const serve::ShardCounters& c = sh.counters();
    std::printf("  shard %d: batches=%llu attempts=%llu failed=%llu "
                "faults=%llu trips=%d final=%s\n",
                sh.id(), static_cast<unsigned long long>(c.batches),
                static_cast<unsigned long long>(c.attempts),
                static_cast<unsigned long long>(c.failed_attempts),
                static_cast<unsigned long long>(c.faults_injected),
                sh.breaker().trips(),
                std::string(serve::to_string(sh.breaker().state())).c_str());
    for (const serve::BreakerTransition& t : sh.breaker().transitions()) {
      std::printf("    %12.1f us  %s -> %s\n", t.time_us,
                  std::string(serve::to_string(t.from)).c_str(),
                  std::string(serve::to_string(t.to)).c_str());
    }
  }

  if (want_metrics) print_metrics(server, s, cfg.deadline_us);
  if (want_tenants) print_tenants(server, s);

  if (!trace_path.empty()) {
    std::ofstream f(trace_path, std::ios::binary);
    if (!f) {
      simt::log::error("error: cannot open trace file '%s'\n",
                       trace_path.c_str());
      return 1;
    }
    serve::write_serve_trace(f, server.tracer(), &server.telemetry(),
                             cfg.num_shards, &server.completions());
    std::printf("\nwrote trace: %s\n", trace_path.c_str());
  }

  if (args.get_flag("completions")) {
    std::printf("\ncompletions:\n");
    for (const serve::Completion& c : server.completions()) {
      std::printf("  #%llu %-8s %-7s shard=%d attempts=%d latency=%.0f us%s%s\n",
                  static_cast<unsigned long long>(c.id),
                  std::string(serve::to_string(c.kind)).c_str(),
                  std::string(serve::to_string(c.status)).c_str(), c.shard,
                  c.attempts, c.latency_us, c.hedged ? " hedged" : "",
                  c.status == serve::RequestStatus::kOk && !c.correct
                      ? " WRONG"
                      : "");
    }
  }

  if (s.wrong > 0) {
    simt::log::error("FAIL: %llu Ok result(s) failed verification\n",
                     static_cast<unsigned long long>(s.wrong));
    return 1;
  }
  if (s.ok + s.expired + s.shed != s.submitted) {
    simt::log::error("FAIL: request accounting broken\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bench::Args args(argc, argv, kUsage);
    return run(args);
  } catch (const std::invalid_argument& e) {
    nestpar::simt::log::error("error: %s\n%s\n", e.what(), kUsage);
    return 2;
  }
}
