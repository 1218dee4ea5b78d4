// Hashing primitives for DistCache.
//
// DistCache's core idea (paper §3.1) is to partition the hot objects between cache
// layers with *independent* hash functions h0(x), h1(x). The analysis (appendix A.2)
// requires the two functions to behave like independent random functions so that the
// object→cache-node bipartite graph has the expansion property. We provide:
//
//  * Mix64           — a strong 64-bit finalizer (SplitMix64 / Murmur3-style avalanche),
//                      used for key placement and generic hashing.
//  * TabulationHash  — Zobrist/tabulation hashing: 3-independent and, per Pătraşcu &
//                      Thorup, behaves like a fully random function for load-balancing
//                      style applications. Different seeds yield independent functions.
//  * HashFamily      — a named family {h_0, h_1, ..., h_{L-1}} of independent
//                      TabulationHash instances, one per cache layer.
#ifndef DISTCACHE_COMMON_HASH_H_
#define DISTCACHE_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace distcache {

// SplitMix64 finalizer. Bijective on 64-bit integers; excellent avalanche behaviour.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Combines two 64-bit hashes (boost::hash_combine style, 64-bit constants).
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

// Hashes an arbitrary byte string (FNV-1a core + Mix64 finalizer).
uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
// Used as the integrity check on multiproc stats blobs: unlike the avalanche
// hashes above it is the standard wire checksum, so a corrupted shared-memory
// region is detected with well-understood error characteristics.
uint32_t Crc32(const void* data, size_t len);

// Simple tabulation hashing over the 8 bytes of a 64-bit key.
//
// Each of the 8 key bytes indexes a 256-entry table of random 64-bit words; the hash is
// the XOR of the selected words. Tabulation hashing is 3-independent and is known to
// give full-randomness-like guarantees for cuckoo hashing, linear probing and chaining
// (Pătraşcu–Thorup, "The Power of Simple Tabulation Hashing"). Two instances seeded
// differently are independent functions — exactly what DistCache's h0/h1 need.
class TabulationHash {
 public:
  explicit TabulationHash(uint64_t seed);

  uint64_t operator()(uint64_t key) const {
    // Key ids below 2^32 (every simulated key space) have four zero high
    // bytes, whose rows always select entry 0: their XOR is precomputed, so
    // such a key costs four lookups and hashes to the same value.
    uint64_t h = key >> 32 == 0 ? high_zero_ : HighBytes(key);
    for (int i = 0; i < 4; ++i) {
      h ^= table_[i][static_cast<uint8_t>(key >> (8 * i))];
    }
    return h;
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t HighBytes(uint64_t key) const {
    uint64_t h = 0;
    for (int i = 4; i < 8; ++i) {
      h ^= table_[i][static_cast<uint8_t>(key >> (8 * i))];
    }
    return h;
  }

  uint64_t seed_;
  std::array<std::array<uint64_t, 256>, 8> table_;
  uint64_t high_zero_ = 0;  // table_[4][0] ^ ... ^ table_[7][0]
};

// A family of independent hash functions {h_0 .. h_{layers-1}}, one per cache layer.
// h_i(key) % buckets gives the cache node index of `key` within layer i.
class HashFamily {
 public:
  // Creates `count` independent functions derived from `seed`.
  HashFamily(size_t count, uint64_t seed);

  // Value of h_i(key).
  uint64_t Hash(size_t i, uint64_t key) const { return functions_[i](key); }

  // Bucket (cache-node index) of `key` in layer i with `buckets` nodes.
  size_t Bucket(size_t i, uint64_t key, size_t buckets) const {
    return static_cast<size_t>(functions_[i](key) % buckets);
  }

  size_t size() const { return functions_.size(); }

 private:
  std::vector<TabulationHash> functions_;
};

}  // namespace distcache

#endif  // DISTCACHE_COMMON_HASH_H_
