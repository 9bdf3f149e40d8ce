// One recording per call, for tests that compare the model time of several
// recordings made on one Device.
#pragma once

#include "src/simt/device.h"

namespace nestpar::test {

/// Report of the launches `launches()` makes on `dev`, recorded in a fresh
/// Session that closes before this returns.
template <typename F>
simt::RunReport timed(simt::Device& dev, F&& launches) {
  simt::Session s = dev.session();
  launches();
  return s.report();
}

}  // namespace nestpar::test
