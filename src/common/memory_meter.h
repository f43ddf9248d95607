// Memory accounting helpers (DESIGN.md §5). The paper's Figure 10 compares
// peak process memory of separate binaries; all engines run inside one
// process here, so each component instead prices its live state from the
// element counts it already keeps — arithmetic over sizes, never a walk
// over its contents — and the stream driver tracks the peak of that
// estimate after every delivery.
#ifndef TCSM_COMMON_MEMORY_METER_H_
#define TCSM_COMMON_MEMORY_METER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcsm {

/// Heap buffer (by capacity) plus the vector object itself.
template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T) + sizeof(v);
}

/// The count model of a node-based hash container of type `C` holding `n`
/// elements: one heap node per element, i.e. the value plus a next
/// pointer and the cached hash. Bucket arrays are not priced (their size
/// follows the container's history, not its content), and neither is the
/// container object, which its owner prices with its own sizeof.
template <typename C>
constexpr size_t HashBytes(size_t n) {
  return n * (sizeof(typename C::value_type) + 2 * sizeof(void*));
}

/// Tracks the peak of a recomputed estimate, and *where* it happened:
/// callers with a stream position pass it so a memory spike is
/// attributable to an event index, not just a magnitude.
class PeakMeter {
 public:
  void Observe(size_t bytes, size_t event_index = 0) {
    if (bytes > peak_) {
      peak_ = bytes;
      peak_at_ = event_index;
    }
  }
  size_t peak_bytes() const { return peak_; }
  /// Event index passed with the observation that set the current peak
  /// (0 when the caller never supplied positions).
  size_t peak_event_index() const { return peak_at_; }
  void Reset() {
    peak_ = 0;
    peak_at_ = 0;
  }

 private:
  size_t peak_ = 0;
  size_t peak_at_ = 0;
};

}  // namespace tcsm

#endif  // TCSM_COMMON_MEMORY_METER_H_
