// 64-bit set helpers. Query graphs are limited to 64 vertices and 64 edges
// (far beyond the paper's maximum query size of 15 edges), which lets the
// temporal order, failing sets, reachability and the mapped part of a
// partial embedding be plain uint64_t masks.
#ifndef TCSM_COMMON_BITMASK_H_
#define TCSM_COMMON_BITMASK_H_

#include <bit>
#include <cstdint>

namespace tcsm {

using Mask64 = uint64_t;

inline constexpr Mask64 Bit(uint32_t i) { return Mask64{1} << i; }
inline constexpr bool HasBit(Mask64 m, uint32_t i) { return (m >> i) & 1u; }
inline constexpr int PopCount(Mask64 m) { return std::popcount(m); }

/// Iterates set bits of a mask: for (uint32_t i : BitRange(mask)) ...
class BitRange {
 public:
  explicit constexpr BitRange(Mask64 mask) : mask_(mask) {}

  class Iterator {
   public:
    explicit constexpr Iterator(Mask64 mask) : mask_(mask) {}
    constexpr uint32_t operator*() const {
      return static_cast<uint32_t>(std::countr_zero(mask_));
    }
    constexpr Iterator& operator++() {
      mask_ &= mask_ - 1;
      return *this;
    }
    constexpr bool operator!=(const Iterator& other) const {
      return mask_ != other.mask_;
    }

   private:
    Mask64 mask_;
  };

  constexpr Iterator begin() const { return Iterator(mask_); }
  constexpr Iterator end() const { return Iterator(0); }

 private:
  Mask64 mask_;
};

/// True when a position in `mapped` holds `value` in `images` (a vertex or
/// edge map indexed by query id): injectivity read off the partial mapping.
/// Entries outside `mapped` are ignored, so they may be stale.
template <typename Images, typename T>
constexpr bool MappedTo(Mask64 mapped, const Images& images, const T& value) {
  for (const uint32_t i : BitRange(mapped)) {
    if (images[i] == value) return true;
  }
  return false;
}

}  // namespace tcsm

#endif  // TCSM_COMMON_BITMASK_H_
