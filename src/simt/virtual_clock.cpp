#include "src/simt/virtual_clock.h"

#include <stdexcept>
#include <string>

namespace nestpar::simt {

void VirtualClock::advance_to(double t_us) {
  if (t_us < now_us_) {
    throw std::logic_error("VirtualClock::advance_to: time went backwards (" +
                           std::to_string(now_us_) + " -> " +
                           std::to_string(t_us) + " us)");
  }
  now_us_ = t_us;
}

TickSampler::TickSampler(double interval_us) : interval_us_(interval_us) {
  if (interval_us < 0.0) {
    throw std::invalid_argument("TickSampler: negative interval " +
                                std::to_string(interval_us));
  }
}

bool TickSampler::next_due(double now_us, double* tick_us) {
  if (!enabled()) return false;
  const double boundary = static_cast<double>(next_index_) * interval_us_;
  if (boundary > now_us) return false;
  *tick_us = boundary;
  ++next_index_;
  return true;
}

}  // namespace nestpar::simt
