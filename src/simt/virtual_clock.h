#pragma once

#include <cstdint>

namespace nestpar::simt {

/// Deterministic virtual clock for layers that compose many modeled runs
/// into one timeline (the serving runtime stitches per-batch `RunReport`
/// times together with queueing and backoff delays). Time is modeled
/// microseconds — the same unit as `RunReport::total_us` — and only ever
/// moves forward, so two runs with the same inputs replay the same instants
/// regardless of the host engine or wall-clock speed. Never mix these
/// instants with host wall time: wall-clock measurements (e.g. the
/// simulator_throughput self-benchmark) live outside the model and are
/// tagged volatile in the results pipeline (see docs/SIMULATOR.md).
///
/// A VirtualClock is a plain value type — no global state, no threads;
/// whoever owns the composition (e.g. serve::Server) owns the clock, and
/// Deadlines are value snapshots that never reference it.
class VirtualClock {
 public:
  double now_us() const { return now_us_; }

  /// Move the clock to `t_us`. Throws std::logic_error if `t_us` is in the
  /// past — a virtual timeline that rewinds is a scheduling bug, never a
  /// legitimate state.
  void advance_to(double t_us);

 private:
  double now_us_ = 0.0;
};

/// Fixed-interval sampling boundaries on the virtual timeline: 0, I, 2I, ...
/// A discrete-event loop calls `next_due` before processing each event to
/// drain every boundary at or before that event's time, so time-series
/// sampled at the boundaries observe the state *between* events — which is
/// constant — and the resulting series is a pure function of the event
/// schedule, never of host timing. Interval 0 disables the sampler (no
/// boundary is ever due).
class TickSampler {
 public:
  TickSampler() = default;
  /// Throws std::invalid_argument on a negative interval.
  explicit TickSampler(double interval_us);

  bool enabled() const { return interval_us_ > 0.0; }
  double interval_us() const { return interval_us_; }

  /// True while an unsampled boundary <= `now_us` remains; writes it to
  /// `*tick_us` and advances past it. Call in a loop to drain:
  /// ```cpp
  ///   double tick;
  ///   while (sampler.next_due(event.t, &tick)) sample_state_at(tick);
  /// ```
  bool next_due(double now_us, double* tick_us);

 private:
  double interval_us_ = 0.0;
  std::uint64_t next_index_ = 0;  ///< Boundary index; tick = index * interval.
};

/// A per-request latency budget on the virtual timeline. A request admitted
/// at `arrival_us` with budget `budget_us` expires at `expiry_us()`;
/// deadline checks are pure reads of the clock, so the same run always
/// expires the same requests.
struct Deadline {
  double arrival_us = 0.0;
  double budget_us = 0.0;

  double expiry_us() const { return arrival_us + budget_us; }
  bool expired_at(double now_us) const { return now_us > expiry_us(); }
  /// Budget left at `now_us` (negative once expired).
  double remaining_us(double now_us) const { return expiry_us() - now_us; }
};

}  // namespace nestpar::simt
