#include "src/simt/device.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/simt/host_alloc.h"
#include "src/simt/profiler.h"

namespace nestpar::simt {

const KernelReport& RunReport::kernel(const std::string& name) const {
  for (const KernelReport& k : per_kernel) {
    if (k.name == name) return k;
  }
  throw std::out_of_range("no kernel named '" + name + "' in report");
}

Device::Device(DeviceSpec spec, int max_nesting_depth, ExecPolicy policy)
    : recorder_(spec, max_nesting_depth), policy_(policy) {
  // Forces host_alloc.cpp (the segment-aligned operator new replacement) out
  // of the static archive; without a referenced symbol the linker would drop
  // it and buffer addresses — and thus modeled coalescing — would depend on
  // heap history, which differs between the serial and parallel engines.
  (void)detail::host_allocator_active();
  // Transient-fault injection from NESTPAR_FAULTS (disabled when unset);
  // set_fault_config() can override programmatically.
  recorder_.set_fault_config(FaultConfig::from_env());
  apply_policy();
}

void Device::apply_policy() {
  const int threads = policy_.resolve_threads();
  if (policy_.mode == ExecMode::kParallel && threads > 1) {
    if (pool_ == nullptr || pool_->threads() != threads) {
      pool_ = std::make_unique<ThreadPool>(threads);
    }
    recorder_.set_pool(pool_.get());
  } else {
    recorder_.set_pool(nullptr);
  }
}

void Device::set_exec_policy(const ExecPolicy& policy) {
  policy_ = policy;
  apply_policy();
}

Session Device::session() { return session(policy_); }

Session Device::session(const ExecPolicy& policy) {
  if (session_active_) {
    throw std::logic_error(
        "Device::session: a Session is already open on this Device");
  }
  return Session(this, policy);
}

Session::Session(Device* dev, const ExecPolicy& policy)
    : dev_(dev), restore_(dev->policy_) {
  dev_->session_active_ = true;
  dev_->set_exec_policy(policy);
  dev_->recorder_.reset();
}

Session::Session(Session&& other) noexcept
    : dev_(std::exchange(other.dev_, nullptr)), restore_(other.restore_) {}

Session::~Session() {
  if (dev_ == nullptr) return;
  dev_->recorder_.reset();
  dev_->set_exec_policy(restore_);
  dev_->session_active_ = false;
}

void Device::launch(const LaunchConfig& cfg, Kernel k, StreamHandle stream) {
  const LaunchResult r = recorder_.launch_host(cfg, k, stream);
  if (!r.ok()) {
    throw SimtException(r.error, "host launch '" + cfg.name + "' refused: " +
                                     std::string(to_string(r.error)));
  }
}

void Device::launch_threads(const LaunchConfig& cfg, ThreadKernel k,
                            StreamHandle stream) {
  launch(cfg, as_kernel(std::move(k)), stream);
}

void Device::prof_counter(std::string_view track, double value) {
  if (Profile* prof = active_profile()) {
    prof->counter(track, value, recorder_.graph().nodes.size());
  }
}

void Device::prof_value(std::string_view track, double value) {
  if (Profile* prof = active_profile()) prof->value(track, value);
}

void Device::prof_instant(std::string_view name, std::string_view cat) {
  if (Profile* prof = active_profile()) {
    prof->instant(name, cat, recorder_.graph().nodes.size());
  }
}

int Device::blocks_for(std::int64_t items, int block_threads, int max_blocks) {
  if (items <= 0) return 1;
  const std::int64_t blocks = (items + block_threads - 1) / block_threads;
  return static_cast<int>(std::min<std::int64_t>(blocks, max_blocks));
}

RunReport Device::report() {
  LaunchGraph& graph = recorder_.graph();
  RunReport rep;
  rep.robustness = recorder_.host_robustness();
  if (graph.nodes.empty()) return rep;

  const ScheduleResult sched = schedule(recorder_.spec(), graph);
  rep.critical_path = analyze_critical_path(graph, sched);
  if (Profile* prof = active_profile()) {
    prof->observe_report(graph, sched, rep.critical_path);
  }
  rep.total_cycles = sched.total_cycles;
  rep.total_us = recorder_.spec().cycles_to_us(sched.total_cycles);
  rep.grids = graph.nodes.size();

  std::unordered_map<std::string, std::size_t> index;
  for (const KernelNode& node : graph.nodes) {
    if (node.origin == LaunchOrigin::kDevice) ++rep.device_grids;
    auto [it, inserted] = index.emplace(node.name, rep.per_kernel.size());
    if (inserted) {
      rep.per_kernel.push_back(KernelReport{node.name, 0, 0.0, Metrics{}});
    }
    KernelReport& kr = rep.per_kernel[it->second];
    kr.invocations += 1;
    kr.busy_cycles += sched.node_end[node.id] - sched.node_start[node.id];
    kr.metrics += node.metrics;
    rep.aggregate += node.metrics;
  }
  rep.robustness += rep.aggregate.robustness;

  rep.attribution = attribute_cycles(graph, sched);
  if (collect_slices_) {
    const DeviceSpec& spec = recorder_.spec();
    rep.slices.reserve(graph.nodes.size());
    for (const KernelNode& node : graph.nodes) {
      GridSlice s;
      s.node = node.id;
      s.parent = node.parent_kernel;
      s.stream = node.stream;
      s.origin = node.origin;
      s.name = node.name;
      s.start_us = spec.cycles_to_us(sched.node_start[node.id]);
      s.dur_us = spec.cycles_to_us(sched.node_end[node.id] -
                                   sched.node_start[node.id]);
      s.cycles = sched.node_end[node.id] - sched.node_start[node.id];
      s.batch_id = node.batch_id;
      s.members = node.requesters;
      rep.slices.push_back(std::move(s));
    }
  }
  return rep;
}

}  // namespace nestpar::simt
