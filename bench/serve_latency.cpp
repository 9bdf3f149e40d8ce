// Serving-layer latency/robustness bench: drive the src/serve runtime with a
// deterministic open-loop query stream at two load points — "steady" (the
// configured arrival rate) and "overload" (8x, forcing admission control to
// shed) — and record throughput, latency percentiles, and every robustness
// counter (retries, hedges, breaker trips, sheds, injected faults).
//
// Chaos runs: set NESTPAR_FAULTS (or --faults=SPEC) to inject transient
// launch faults; the fault rates become part of each record's identity, so
// chaos records never collide with the clean baselines the comparator gates.
// Under any rate, every query must end Ok, Expired, or Shed — an Ok result
// that fails verification against the serial references counts in `wrong`
// and fails the suite.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/serve/pool.h"
#include "src/serve/server.h"
#include "src/simt/exec_policy.h"
#include "src/simt/log.h"

using namespace nestpar;

namespace {

struct Scenario {
  const char* name;
  double qps;
};

int run(const bench::Args& args, bench::SuiteResult& out) {
  const auto requests = static_cast<int>(args.get_int("requests", 400));
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
  cfg.num_tenants = static_cast<int>(args.get_int("tenants", 4));
  // Observability knobs. The interval is deliberately NOT a record param:
  // changing how often we *observe* must never re-key a record, and the
  // series themselves are gated by the comparator.
  cfg.metrics_interval_us = args.get_double("metrics-interval-us", 1000.0);
  cfg.tmpl = nested::parse_loop_template(args.get_string("tmpl", "cons-grid"));
  const std::string faults_spec = args.get_string("faults", "");
  cfg.faults = faults_spec.empty() ? simt::FaultConfig::from_env()
                                   : simt::FaultConfig::parse(faults_spec);

  serve::PoolSpec pspec;
  pspec.num_graphs = static_cast<int>(args.get_int("graphs", 4));
  pspec.scale = args.get_double("scale", 1.0);
  pspec.seed = cfg.seed ^ 0x700full;

  bench::banner(
      "serving-layer latency under load and chaos (src/serve)",
      "not in the paper: serving extension. Steady load should complete "
      "nearly every query Ok within deadline; 8x overload must shed (bounded "
      "queues, oldest first) instead of melting p99; injected faults must "
      "cost retries/trips, never wrong data.");

  const serve::SubgraphPool pool(pspec);
  const Scenario scenarios[] = {{"steady", qps}, {"overload", qps * 8.0}};

  bench::table_header({"scenario", "ok", "expired", "shed", "retries",
                       "trips", "p50-us", "p99-us", "qps-ok"});
  int rc = 0;
  for (const Scenario& sc : scenarios) {
    const std::vector<serve::Request> workload =
        serve::make_open_loop_workload(pool, cfg, requests, sc.qps);
    serve::Server server(cfg, pool, simt::ExecPolicy::from_env());
    const serve::ServeStats stats = server.run(workload);

    bench::table_row({sc.name, std::to_string(stats.ok),
                      std::to_string(stats.expired),
                      std::to_string(stats.shed),
                      std::to_string(stats.retries),
                      std::to_string(stats.breaker_trips),
                      bench::fmt(stats.p50_us, 0), bench::fmt(stats.p99_us, 0),
                      bench::fmt(stats.qps_ok, 0)});

    bench::ServeRecord rec;
    rec.scenario = sc.name;
    rec.stats = stats;
    rec.tenants = server.tenant_usage();
    rec.telemetry = server.telemetry().series();
    rec.params["requests"] = requests;
    rec.params["qps"] = sc.qps;
    rec.params["shards"] = cfg.num_shards;
    rec.params["queue"] = cfg.queue_capacity;
    rec.params["batch"] = cfg.batch_max;
    rec.params["deadline_us"] = cfg.deadline_us;
    rec.params["attempts"] = cfg.max_attempts;
    rec.params["hedge"] = cfg.hedge ? 1.0 : 0.0;
    rec.params["tenants"] = cfg.num_tenants;
    rec.params["scale"] = pspec.scale;
    rec.params["graphs"] = pspec.num_graphs;
    rec.params["fault_launch"] = cfg.faults.device_launch_rate;
    rec.params["fault_host"] = cfg.faults.host_launch_rate;
    out.serve.push_back(std::move(rec));

    if (stats.wrong > 0) {
      simt::log::error("FAIL: %llu Ok result(s) failed verification in "
                       "scenario '%s'\n",
                       static_cast<unsigned long long>(stats.wrong), sc.name);
      rc = 1;
    }
    if (stats.ok + stats.expired + stats.shed != stats.submitted) {
      simt::log::error("FAIL: request accounting broken in scenario '%s'\n",
                       sc.name);
      rc = 1;
    }
  }
  return rc;
}

// --qps=8000/--queue=6 keep the overload scenario honest at smoke scale: at
// lower rates 80 tiny-graph requests never outrun three shards, nothing
// sheds, and the admission-control path would go ungated in CI.
constexpr const char* kSmokeFlags[] = {"--requests=80", "--qps=8000",
                                       "--shards=3", "--queue=6",
                                       "--scale=0.2", "--graphs=3"};

const bench::Registration reg{{
    .name = "serve_latency",
    .figure = "— (serving extension)",
    .description = "request serving: deadlines/retries/breakers under chaos",
    .usage =
        "usage: serve_latency [--requests=N] [--qps=Q] [--shards=N]\n"
        "  [--queue=N] [--batch=N] [--linger-us=X] [--deadline-us=X]\n"
        "  [--attempts=N] [--no-hedge] [--tmpl=NAME] [--graphs=N]\n"
        "  [--scale=F] [--seed=N] [--tenants=N] [--metrics-interval-us=X]\n"
        "  [--faults=SPEC]\n"
        "  [--out=DIR]\n"
        "  --requests=N     queries per scenario (default 400)\n"
        "  --qps=Q          steady arrival rate (overload runs 8x; def 3000)\n"
        "  --shards=N       simulated devices (default 4)\n"
        "  --queue=N        per-shard queue capacity (default 24)\n"
        "  --batch=N        max queries per consolidated dispatch (default 8)\n"
        "  --linger-us=X    partial-batch linger window (default 200)\n"
        "  --deadline-us=X  per-query budget (default 150000)\n"
        "  --attempts=N     execution attempts per query (default 3)\n"
        "  --no-hedge       back off in place instead of sibling re-dispatch\n"
        "  --tmpl=NAME      loop template for query execution (cons-grid)\n"
        "  --graphs=N       subgraph pool size (default 4)\n"
        "  --scale=F        subgraph size scale (default 1.0)\n"
        "  --seed=N         workload seed (default 2026)\n"
        "  --tenants=N      tenants the workload spreads over (default 4)\n"
        "  --metrics-interval-us=X  telemetry sampling tick in virtual us\n"
        "                   (default 1000; 0 disables the series)\n"
        "  --faults=SPEC    fault injection (NESTPAR_FAULTS syntax; default\n"
        "                   from the environment)\n"
        "  --out=DIR        write BENCH_/SERVE_serve_latency.json to DIR",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
