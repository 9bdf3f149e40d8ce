#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nestpar::serve {

/// One sample of a time series: (virtual time, value).
struct TimePoint {
  double t_us = 0.0;
  double value = 0.0;
};

/// A named, unit-tagged series of virtual-time samples. Two flavors coexist
/// in one registry: tick-sampled gauges (queue depth, in-flight, breaker
/// state — appended at every TickSampler boundary, so the spacing is
/// regular) and event-driven series (batch occupancy, deadline-budget burn —
/// appended when the event happens, so the spacing follows the schedule).
/// Both are pure functions of (config, workload): the comparator gates their
/// rollups and the bytes are stable across engines and chaos reruns.
struct TimeSeries {
  std::string name;  ///< Hierarchical: "shard0/queue_depth", "requests/ok".
  std::string unit;  ///< "queries", "state", "fraction", ...
  std::vector<TimePoint> points;

  /// Largest sample value (0 on an empty series).
  double max_value() const;
};

/// Central metrics registry for one serving run. Owned by serve::Server and
/// fed exclusively from the virtual timeline; a disabled registry (interval
/// 0, the default) records nothing and costs one branch per append, which is
/// what keeps metrics-off runs byte-identical to pre-telemetry builds.
///
/// Series are kept in first-registration order — the order the server's
/// deterministic event loop first touched them — so serialization needs no
/// sorting step to be stable.
class Telemetry {
 public:
  Telemetry() = default;
  /// Interval between gauge samples; 0 disables the registry entirely.
  /// Throws std::invalid_argument on a negative interval.
  explicit Telemetry(double interval_us);

  bool enabled() const { return interval_us_ > 0.0; }
  double interval_us() const { return interval_us_; }

  /// Append one sample to the named series, creating it on first use.
  /// No-op when disabled. `unit` is fixed at creation; later appends to the
  /// same name ignore the argument.
  void append(const std::string& name, const std::string& unit, double t_us,
              double value);

  const std::vector<TimeSeries>& series() const { return series_; }

 private:
  TimeSeries& series_for(const std::string& name, const std::string& unit);

  double interval_us_ = 0.0;
  std::vector<TimeSeries> series_;
};

}  // namespace nestpar::serve
