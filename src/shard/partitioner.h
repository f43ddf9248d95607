// Vertex-to-shard ownership for the sharded execution subsystem
// (DESIGN.md §10). The partitioner is the one rule everything else in
// src/shard/ derives from: shard Owner(v) stores vertex v's COMPLETE
// live adjacency (cross-shard edges are mirrored to both endpoint
// owners), publishes v's signature summary rows, and answers every
// per-vertex read the ShardedGraphView routes. The interface is
// deliberately tiny and deterministic.
#ifndef TCSM_SHARD_PARTITIONER_H_
#define TCSM_SHARD_PARTITIONER_H_

#include <cstddef>

#include "common/bloom.h"
#include "common/logging.h"
#include "common/types.h"

namespace tcsm {

class VertexPartitioner {
 public:
  virtual ~VertexPartitioner() = default;

  /// Number of shards S (>= 1). Owner() always returns values in [0, S).
  virtual size_t num_shards() const = 0;

  /// The shard that owns vertex v. Must be a pure function of v — the
  /// same vertex maps to the same shard for the lifetime of the context
  /// (no rebalancing mid-stream), which is what makes the mirroring
  /// invariant and the summary protocol sound.
  virtual size_t Owner(VertexId v) const = 0;
};

/// Default policy: hash partitioning by the splitmix64 finalizer. Spreads
/// arbitrary (including dense, sequential) vertex id ranges uniformly
/// across shards, is deterministic across runs and platforms, and costs a
/// few ALU ops per lookup — no state, no lookup table.
class HashVertexPartitioner : public VertexPartitioner {
 public:
  explicit HashVertexPartitioner(size_t num_shards)
      : num_shards_(num_shards) {
    TCSM_CHECK(num_shards >= 1);
  }

  size_t num_shards() const override { return num_shards_; }

  size_t Owner(VertexId v) const override {
    return static_cast<size_t>(MixBits64(v) % num_shards_);
  }

 private:
  size_t num_shards_;
};

}  // namespace tcsm

#endif  // TCSM_SHARD_PARTITIONER_H_
