#include "src/simt/profiler.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace nestpar::simt {

int ProfHistogram::bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // negatives and NaN land in bucket 0
  const auto u = static_cast<std::uint64_t>(std::min(v, 9.2e18));
  return std::min(static_cast<int>(std::bit_width(u)), kBuckets - 1);
}

void ProfHistogram::add(double v) {
  if (count == 0) {
    min_value = v;
    max_value = v;
  } else {
    min_value = std::min(min_value, v);
    max_value = std::max(max_value, v);
  }
  ++count;
  sum += v;
  ++buckets[bucket_of(v)];
}

ProfHistogram& ProfHistogram::operator+=(const ProfHistogram& o) {
  if (o.count == 0) return *this;
  if (count == 0) {
    min_value = o.min_value;
    max_value = o.max_value;
  } else {
    min_value = std::min(min_value, o.min_value);
    max_value = std::max(max_value, o.max_value);
  }
  count += o.count;
  sum += o.sum;
  for (int b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
  return *this;
}

namespace {

thread_local Profile* active = nullptr;

bool name_less(const KernelProfile& k, std::string_view name) {
  return k.name < name;
}

}  // namespace

const KernelProfile* Profile::find(std::string_view name) const {
  for (const KernelProfile& k : kernels) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

void Profile::counter(std::string_view track, double value,
                      std::uint64_t node) {
  counters.push_back(CounterSample{std::string(track), value, node});
  tracks[std::string(track)].add(value);
}

void Profile::value(std::string_view track, double v) {
  tracks[std::string(track)].add(v);
}

void Profile::instant(std::string_view name, std::string_view cat,
                      std::uint64_t node) {
  instants.push_back(InstantSample{std::string(name), std::string(cat), node});
}

void Profile::observe_report(const LaunchGraph& graph,
                             const ScheduleResult& sched,
                             const CritPath& crit) {
  ++reports;
  total_cycles += sched.total_cycles;
  crit_total += crit.total;
  for (const auto& [name, attr] : crit.per_kernel) {
    crit_kernels[name] += attr;
  }
  for (const auto& [stack, cycles] : crit.folded) {
    crit_folded[stack] += cycles;
  }
  if (crit.makespan > crit_chain_makespan) {
    crit_chain_makespan = crit.makespan;
    crit_chain = crit.chain;
  }
  for (const KernelNode& node : graph.nodes) {
    auto it = std::lower_bound(kernels.begin(), kernels.end(),
                               std::string_view(node.name), name_less);
    if (it == kernels.end() || it->name != node.name) {
      it = kernels.insert(it, KernelProfile{});
      it->name = node.name;
    }
    KernelProfile& kp = *it;
    ++kp.invocations;
    kp.busy_cycles += sched.node_end[node.id] - sched.node_start[node.id];
    for (const BlockCost& b : node.blocks) kp.block_cycles.add(b.issue_cycles);
    if (!node.blocks.empty()) {
      double mx = 0.0;
      double sum = 0.0;
      for (const BlockCost& b : node.blocks) {
        mx = std::max(mx, static_cast<double>(b.issue_cycles));
        sum += static_cast<double>(b.issue_cycles);
      }
      kp.launch_max_cycles += mx;
      kp.launch_mean_cycles += sum / static_cast<double>(node.blocks.size());
    }
    if (node.origin == LaunchOrigin::kDevice) {
      kp.child_grid_blocks.add(static_cast<double>(node.grid_blocks));
      ++device_grids;
    }
    for (int i = 0; i < kLaneHistSlots; ++i) {
      kp.lane_hist[i] += node.metrics.active_lane_hist[i];
    }
    kp.warp_steps += node.metrics.warp_steps;
    kp.active_lane_ops += node.metrics.active_lane_ops;
    ++kp.nest_depth_grids[node.nest_depth];
    kp.robustness += node.metrics.robustness;
    ++depth_grids[node.nest_depth];
    ++grids;
  }
}

Profile* active_profile() { return active; }

ProfileScope::ProfileScope(Profile& profile)
    : previous_(std::exchange(active, &profile)) {}

ProfileScope::~ProfileScope() { active = previous_; }

}  // namespace nestpar::simt
