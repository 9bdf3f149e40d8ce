// FNV-1a hash over the raw bytes of vectors, for tests that pin generated
// data byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nestpar::test {

/// Hash of the concatenated bytes of `vs`, in argument order.
template <typename... T>
std::uint64_t fnv1a(const std::vector<T>&... vs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const auto& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(v[0]); ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  (mix(vs), ...);
  return h;
}

}  // namespace nestpar::test
