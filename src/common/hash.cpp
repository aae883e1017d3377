#include "common/hash.h"

namespace avd::util {

std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  Fnv1aStream h;
  h.raw(data);
  return h.value();
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  return fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::uint64_t hashCombine(std::uint64_t seed, std::uint64_t value) noexcept {
  // 64-bit variant of boost::hash_combine using the golden-ratio constant.
  seed ^= value + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

}  // namespace avd::util
