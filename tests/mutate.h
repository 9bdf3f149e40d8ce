// Seeded text mutations for parser robustness tests: a mutant of a
// well-formed document must either parse or fail with the parser's own
// typed error, never with anything else.
#pragma once

#include <random>
#include <string>

namespace nestpar::test {

/// One seeded mutation of non-empty `text`: flip a bit, overwrite a byte
/// with a structural character, delete a short span, or truncate.
inline std::string mutate(const std::string& text, std::mt19937_64& rng) {
  static constexpr char kStructural[] = "{}[]\",:-.0123456789eEtfn ";
  std::string m = text;
  const std::size_t pos = rng() % m.size();
  switch (rng() % 4) {
    case 0:
      m[pos] = static_cast<char>(m[pos] ^ (1u << (rng() % 8)));
      break;
    case 1:
      m[pos] = kStructural[rng() % (sizeof(kStructural) - 1)];
      break;
    case 2:
      m.erase(pos, 1 + rng() % 16);
      break;
    default:
      m.resize(pos);
      break;
  }
  return m;
}

}  // namespace nestpar::test
