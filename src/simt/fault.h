#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace nestpar::simt {

/// Sentinel node id in a LaunchResult whose launch did not happen.
inline constexpr std::uint32_t kInvalidLaunchNode = 0xffffffffu;

/// Why a kernel launch was refused by the device runtime. Mirrors the CUDA
/// device-runtime failure modes the paper's templates can run into:
/// cudaErrorLaunchPendingCountExceeded, the CDP nesting-depth limit, and
/// device-heap exhaustion — plus injected transient faults (FaultInjector).
enum class SimtError : std::uint8_t {
  kOk = 0,
  kPendingPoolExhausted,  ///< ResourceLimits::pending_launch_capacity hit.
  kDepthLimitExceeded,    ///< ResourceLimits::max_nesting_depth hit.
  kDeviceHeapExhausted,   ///< ResourceLimits::device_heap_bytes hit.
  kInjectedFault,         ///< Transient failure from the FaultInjector.
};

std::string_view to_string(SimtError e);

/// Transient errors may succeed when retried; resource refusals are
/// deterministic and will refuse again, so callers should degrade instead.
constexpr bool is_transient(SimtError e) {
  return e == SimtError::kInjectedFault;
}

/// Status of one launch attempt. `node` is the launch-graph node id for host
/// launches; for device-side launches it is an engine-internal id (only
/// meaningful to the engine) — callers should branch on `ok()`. Discarding
/// one is a build error (`-Werror=unused-result`): a refused launch must be
/// handled.
struct [[nodiscard]] LaunchResult {
  std::uint32_t node = kInvalidLaunchNode;
  SimtError error = SimtError::kOk;

  bool ok() const { return error == SimtError::kOk; }
  explicit operator bool() const { return ok(); }
};

/// Thrown by the host launches (`Device::launch`, `Device::launch_threads`)
/// when a launch is refused; device-side launches (LaneCtx) return a
/// LaunchResult instead. Derives from std::runtime_error.
class SimtException : public std::runtime_error {
 public:
  SimtException(SimtError error, const std::string& what)
      : std::runtime_error(what), error_(error) {}
  SimtError error() const { return error_; }

 private:
  SimtError error_;
};

/// Where a fault can be injected.
enum class FaultSite : std::uint8_t {
  kDeviceLaunch,  ///< Nested (device-side) kernel launch.
  kHostLaunch,    ///< Host-side kernel launch.
};

/// Configuration of the transient-fault injector. Deterministic: whether an
/// individual launch attempt fails is a pure hash of (seed, site, attempt
/// key), so the same run sees the same faults under both host engines.
///
/// Env syntax (`NESTPAR_FAULTS`), comma-separated `key=value`:
///   launch=0.05   device-launch failure probability in [0, 1]
///   host=0.01     host-launch failure probability in [0, 1]
///   seed=42       injector seed
///   retries=3     max retries of a synchronizing LaneCtx::launch
///   backoff=2000  base retry backoff in cycles (doubles per retry)
/// A bare number ("0.05") is shorthand for `launch=0.05`.
struct FaultConfig {
  double device_launch_rate = 0.0;
  double host_launch_rate = 0.0;
  std::uint64_t seed = 0xfa17;
  int max_retries = 3;
  double backoff_base_cycles = 2000.0;

  bool enabled() const {
    return device_launch_rate > 0.0 || host_launch_rate > 0.0;
  }
  double rate(FaultSite site) const {
    return site == FaultSite::kDeviceLaunch ? device_launch_rate
                                            : host_launch_rate;
  }

  /// Parse the env syntax above; throws std::invalid_argument on bad input.
  static FaultConfig parse(std::string_view spec);
  /// Config from `NESTPAR_FAULTS` (disabled when unset/empty).
  static FaultConfig from_env();
};

/// Deterministic, seeded transient-fault source. Stateless between calls:
/// the decision for an attempt depends only on (config.seed, site, key).
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {}

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled(); }

  /// True when the attempt identified by `key` at `site` should fail.
  bool should_fail(FaultSite site, std::uint64_t key) const;

 private:
  FaultConfig cfg_;
};

/// splitmix64 mix — the hash behind the injector's decisions and the
/// per-block-task attempt keys (public so the engine can derive stable keys).
std::uint64_t fault_mix(std::uint64_t x);

}  // namespace nestpar::simt
