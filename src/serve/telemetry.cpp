#include "src/serve/telemetry.h"

#include <algorithm>
#include <stdexcept>

namespace nestpar::serve {

double TimeSeries::max_value() const {
  double m = 0.0;
  for (const TimePoint& p : points) m = std::max(m, p.value);
  return m;
}

Telemetry::Telemetry(double interval_us) : interval_us_(interval_us) {
  if (interval_us < 0.0) {
    throw std::invalid_argument("Telemetry: negative interval " +
                                std::to_string(interval_us));
  }
}

TimeSeries& Telemetry::series_for(const std::string& name,
                                  const std::string& unit) {
  for (TimeSeries& s : series_) {
    if (s.name == name) return s;
  }
  TimeSeries s;
  s.name = name;
  s.unit = unit;
  series_.push_back(std::move(s));
  return series_.back();
}

void Telemetry::append(const std::string& name, const std::string& unit,
                       double t_us, double value) {
  if (!enabled()) return;
  // Keep each series time-sorted on insert: event-driven appends (e.g. a
  // batch turn's budget sample) can run ahead of the next event's clock, so
  // raw append order is not time order. Ties keep append order (stable), so
  // the series stays a pure function of the schedule.
  std::vector<TimePoint>& pts = series_for(name, unit).points;
  const auto pos = std::upper_bound(
      pts.begin(), pts.end(), t_us,
      [](double t, const TimePoint& p) { return t < p.t_us; });
  pts.insert(pos, TimePoint{t_us, value});
}

}  // namespace nestpar::serve
