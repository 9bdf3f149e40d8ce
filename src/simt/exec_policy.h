#pragma once

#include <string>

namespace nestpar::simt {

/// How the functional pass uses host threads. Lane code always runs on the
/// launching thread, blocks and lanes in order; the modes differ only in
/// where finished warp traces are reduced into costs.
enum class ExecMode {
  kSerial,    ///< Each warp is reduced inline as it finishes.
  kParallel,  ///< Long warp traces are reduced on a host thread pool while
              ///< the next warp records; results are folded in warp order.
};

/// Host execution policy for a Device (or a single Session). Both modes
/// produce the same functional results and a bit-identical `RunReport` by
/// construction — lane atomics resolve in (block, lane) order, and every
/// floating-point sum is folded in the serial order — so the mode only
/// changes the simulator's wall-clock time.
struct ExecPolicy {
  ExecMode mode = ExecMode::kSerial;
  /// Host threads for kParallel; 0 = auto (NESTPAR_THREADS env if set,
  /// otherwise std::thread::hardware_concurrency()).
  int threads = 0;

  static ExecPolicy serial() { return ExecPolicy{ExecMode::kSerial, 0}; }
  static ExecPolicy parallel(int threads = 0) {
    return ExecPolicy{ExecMode::kParallel, threads};
  }

  /// Policy from the environment: `NESTPAR_EXEC=serial|parallel` selects the
  /// mode (default serial), `NESTPAR_THREADS=N` sets the pool size and, when
  /// N > 1 and NESTPAR_EXEC is unset, also opts into the parallel engine.
  static ExecPolicy from_env();

  /// The worker count this policy resolves to on this machine (>= 1).
  /// kSerial always resolves to 1.
  int resolve_threads() const;

  bool operator==(const ExecPolicy&) const = default;
};

std::string to_string(const ExecPolicy& p);

}  // namespace nestpar::simt
