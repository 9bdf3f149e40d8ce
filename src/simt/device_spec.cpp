#include "src/simt/device_spec.h"

namespace nestpar::simt {

DeviceSpec DeviceSpec::k20() { return DeviceSpec{}; }

DeviceSpec DeviceSpec::k40() {
  DeviceSpec s;
  s.num_sms = 15;
  s.clock_ghz = 0.745;
  return s;
}

DeviceSpec DeviceSpec::small_kepler() {
  DeviceSpec s;
  s.num_sms = 2;
  s.max_concurrent_grids = 16;
  return s;
}

int DeviceSpec::warps_per_block(int threads_per_block) const {
  return (threads_per_block + warp_size - 1) / warp_size;
}

}  // namespace nestpar::simt
