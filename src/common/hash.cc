#include "common/hash.h"

#include "common/random.h"

namespace distcache {

uint64_t HashBytes(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

uint32_t Crc32(const void* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

TabulationHash::TabulationHash(uint64_t seed) : seed_(seed) {
  Rng rng(Mix64(seed ^ 0x7ab1e5eedULL));
  for (auto& row : table_) {
    for (auto& cell : row) {
      cell = rng.Next();
    }
  }
  high_zero_ = HighBytes(0);
}

HashFamily::HashFamily(size_t count, uint64_t seed) {
  functions_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    functions_.emplace_back(HashCombine(seed, Mix64(i + 1)));
  }
}

}  // namespace distcache
