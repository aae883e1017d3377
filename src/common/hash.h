// Non-cryptographic hashing used for digests, deduplication keys and
// deterministic seed derivation. Cryptographic-strength MACs live in
// src/crypto; this header is for identity, not authentication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace avd::util {

/// Incremental 64-bit FNV-1a over the encoding ByteWriter would produce:
/// feeding the same scalars and blobs in the same order yields fnv1a() of
/// the writer's bytes, without building the buffer.
class Fnv1aStream {
 public:
  void u8(std::uint8_t v) noexcept {
    h_ ^= v;
    h_ *= kPrime;
  }
  void u32(std::uint32_t v) noexcept { appendLe(v); }
  void u64(std::uint64_t v) noexcept { appendLe(v); }
  /// Length-prefixed (u32) raw bytes, as ByteWriter::blob.
  void blob(std::span<const std::uint8_t> data) noexcept {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  void raw(std::span<const std::uint8_t> data) noexcept {
    for (std::uint8_t b : data) u8(b);
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  template <typename T>
  void appendLe(T v) noexcept {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::uint64_t h_ = kOffset;
};

/// 64-bit FNV-1a over raw bytes.
std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept;
std::uint64_t fnv1a(std::string_view s) noexcept;

/// Order-sensitive combination of two 64-bit hashes (boost-style mix).
std::uint64_t hashCombine(std::uint64_t seed, std::uint64_t value) noexcept;

}  // namespace avd::util
