// Unit tests for the sharded execution subsystem (src/shard/): the hash
// partitioner's determinism and balance, the summary exchange's
// no-false-negative guarantee, and the mirroring invariant — every shard
// owning an endpoint of a live edge holds an identical live record, and
// expiry removes all mirrors in lockstep. The differential guarantee
// (sharded match streams byte-identical to serial over the fuzz
// catalogue) lives in stream_fuzz_test.cpp (ShardedMatchesSerial).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "exec/parallel_context.h"
#include "graph/temporal_graph.h"
#include "shard/partitioner.h"
#include "shard/sharded_context.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_graph.h"
#include "shard/summaries.h"

namespace tcsm {
namespace {

TEST(VertexPartitionerTest, HashOwnerIsDeterministicAndInRange) {
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const HashVertexPartitioner a(shards);
    const HashVertexPartitioner b(shards);
    EXPECT_EQ(a.num_shards(), shards);
    for (VertexId v = 0; v < 1000; ++v) {
      const size_t owner = a.Owner(v);
      EXPECT_LT(owner, shards);
      // Pure function of the vertex id: identical across instances (and
      // hence across runs, processes, and platforms).
      EXPECT_EQ(owner, b.Owner(v));
    }
  }
}

TEST(VertexPartitionerTest, HashOwnerBalancesUniformIds) {
  // Dense sequential ids are the common (and adversarial-for-modulo)
  // case: the mixed hash must spread them within 2x of the ideal share.
  constexpr size_t kVertices = 8192;
  for (const size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    const HashVertexPartitioner part(shards);
    std::vector<size_t> counts(shards, 0);
    for (VertexId v = 0; v < kVertices; ++v) ++counts[part.Owner(v)];
    const size_t ideal = kVertices / shards;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_GT(counts[s], 0u) << "shard " << s << " owns nothing";
      EXPECT_LE(counts[s], 2 * ideal)
          << "shard " << s << " of " << shards << " owns " << counts[s]
          << " of " << kVertices << " vertices (ideal " << ideal << ")";
    }
  }
}

// Rig driving identical event sequences into a ShardedStreamContext and
// a plain union TemporalGraph (the unsharded ground truth), with
// invariant checks over every vertex and label signature.
class ShardMirrorTest : public ::testing::Test {
 protected:
  static constexpr size_t kVertices = 24;
  static constexpr Label kLabels = 3;

  void Init(size_t shards, bool directed) {
    schema_.directed = directed;
    schema_.vertex_labels.clear();
    Rng rng(0x5eedu + shards);
    for (size_t v = 0; v < kVertices; ++v) {
      schema_.vertex_labels.push_back(
          static_cast<Label>(rng.NextBounded(kLabels)));
    }
    context_ = std::make_unique<ShardedStreamContext>(schema_, shards,
                                                      /*num_threads=*/1);
    union_graph_ = std::make_unique<TemporalGraph>(directed);
    union_graph_->EnsureVertices(kVertices);
    for (size_t v = 0; v < kVertices; ++v) {
      union_graph_->SetVertexLabel(static_cast<VertexId>(v),
                                   schema_.vertex_labels[v]);
    }
  }

  TemporalEdge Arrive(Rng* rng, Timestamp ts) {
    TemporalEdge ed;
    ed.src = static_cast<VertexId>(rng->NextBounded(kVertices));
    do {
      ed.dst = static_cast<VertexId>(rng->NextBounded(kVertices));
    } while (ed.dst == ed.src);
    ed.ts = ts;
    ed.label = static_cast<Label>(rng->NextBounded(kLabels));
    ed.id = static_cast<EdgeId>(arrived_.size());
    context_->OnEdgeArrival(ed);
    const EdgeId id = union_graph_->InsertEdge(ed.src, ed.dst, ed.ts, ed.label);
    EXPECT_EQ(id, ed.id);
    arrived_.push_back(ed);
    return ed;
  }

  void Expire(const TemporalEdge& ed) {
    context_->OnEdgeExpiry(ed);
    union_graph_->RemoveEdge(ed.id);
  }

  /// The mirroring invariant: every live edge is held, alive and
  /// bit-identical, by the owners of BOTH endpoints and by no other
  /// shard; expired edges are dead everywhere.
  void CheckMirrors() {
    const VertexPartitioner& part = context_->partitioner();
    const size_t shards = context_->num_shards();
    size_t cross_shard = 0;
    for (const TemporalEdge& ed : arrived_) {
      const bool live = union_graph_->Alive(ed.id);
      const size_t own_src = part.Owner(ed.src);
      const size_t own_dst = part.Owner(ed.dst);
      if (own_src != own_dst) ++cross_shard;
      for (size_t s = 0; s < shards; ++s) {
        const TemporalGraph& g = context_->shard_graph(s);
        const bool holds = (s == own_src || s == own_dst) && live;
        ASSERT_EQ(g.Alive(ed.id), holds)
            << "edge " << ed.id << " on shard " << s;
        if (!holds) continue;
        const TemporalEdge& rec = g.Edge(ed.id);
        EXPECT_EQ(rec.src, ed.src);
        EXPECT_EQ(rec.dst, ed.dst);
        EXPECT_EQ(rec.ts, ed.ts);
        EXPECT_EQ(rec.label, ed.label);
      }
    }
    if (shards > 1) {
      EXPECT_GT(cross_shard, 0u)
          << "rig produced no cross-shard edges; nothing was mirrored";
    }
  }

  /// The summary protocol: every published row is bit-equal to the owner
  /// graph's exact masks, and — the pinned no-false-negative property —
  /// MayHaveMatching through the view never returns false for a
  /// (vertex, signature, direction) that has a live entry in the ground
  /// truth graph.
  void CheckSummaries() {
    const VertexPartitioner& part = context_->partitioner();
    const ShardedGraphView& view = context_->view();
    for (VertexId v = 0; v < kVertices; ++v) {
      const TemporalGraph& owner = context_->shard_graph(part.Owner(v));
      EXPECT_EQ(context_->summaries().MayHaveMatching(v, 0, 0, true),
                view.MayHaveMatching(v, 0, 0, true));
      EXPECT_EQ(owner.VertexSigAny(v).bits(),
                context_->shard_graph(part.Owner(v)).VertexSigAny(v).bits());
      for (Label el = 0; el < kLabels; ++el) {
        for (Label nl = 0; nl < kLabels; ++nl) {
          for (const bool want_out : {false, true}) {
            bool truth = false;
            for (const auto& entry :
                 union_graph_->NeighborsMatching(v, el, nl)) {
              if (!schema_.directed || entry.out == want_out) {
                truth = true;
                break;
              }
            }
            if (truth) {
              EXPECT_TRUE(view.MayHaveMatching(v, el, nl, want_out))
                  << "false negative at v=" << v << " el=" << int(el)
                  << " nl=" << int(nl) << " out=" << want_out;
            }
            // Verdict parity with the unsharded graph (the exact masks
            // agree, so sharding changes no pruning decision).
            EXPECT_EQ(view.MayHaveMatching(v, el, nl, want_out),
                      union_graph_->MayHaveMatching(v, el, nl, want_out));
          }
        }
      }
    }
  }

  GraphSchema schema_;
  std::unique_ptr<ShardedStreamContext> context_;
  std::unique_ptr<TemporalGraph> union_graph_;
  std::vector<TemporalEdge> arrived_;
};

TEST_F(ShardMirrorTest, MirrorsAndSummariesTrackArrivals) {
  Init(/*shards=*/4, /*directed=*/true);
  Rng rng(0xabc1);
  for (size_t i = 0; i < 200; ++i) {
    Arrive(&rng, static_cast<Timestamp>(i / 4));
  }
  CheckMirrors();
  CheckSummaries();
}

TEST_F(ShardMirrorTest, MirrorsStayConsistentAfterExpiry) {
  Init(/*shards=*/4, /*directed=*/true);
  Rng rng(0xabc2);
  for (size_t i = 0; i < 200; ++i) {
    Arrive(&rng, static_cast<Timestamp>(i / 4));
  }
  // FIFO window slide: the oldest 120 edges expire — cross-shard mirrors
  // must disappear from BOTH holders, and the republished rows must drop
  // signatures that no longer have live entries (verdict parity below
  // would catch a stale row).
  for (size_t i = 0; i < 120; ++i) Expire(arrived_[i]);
  CheckMirrors();
  CheckSummaries();
  // Refill after the slide: id assignment continues densely and the
  // reclaimed mirrors do not resurrect.
  for (size_t i = 0; i < 80; ++i) {
    Arrive(&rng, static_cast<Timestamp>(50 + i / 4));
  }
  CheckMirrors();
  CheckSummaries();
}

TEST_F(ShardMirrorTest, UndirectedSingleShardDegeneratesToUnion) {
  // S=1 is the degenerate deployment: one shard owns everything, nothing
  // is mirrored, and the context must agree with the union graph exactly.
  Init(/*shards=*/1, /*directed=*/false);
  Rng rng(0xabc3);
  for (size_t i = 0; i < 120; ++i) {
    Arrive(&rng, static_cast<Timestamp>(i / 3));
  }
  for (size_t i = 0; i < 60; ++i) Expire(arrived_[i]);
  CheckMirrors();
  CheckSummaries();
  EXPECT_EQ(context_->shard_graph(0).NumAliveEdges(),
            union_graph_->NumAliveEdges());
}

/// One context with one TCM engine reporting into a collecting sink.
struct SingleEventRig {
  std::unique_ptr<SharedStreamContext> context;
  std::unique_ptr<ContinuousEngine> engine;
  CollectingSink sink;

  /// shards == 0 builds the engine-parallel context, otherwise a sharded
  /// one; threads is the pool width either way.
  SingleEventRig(const GraphSchema& schema, const QueryGraph& q,
                 size_t shards, size_t threads) {
    if (shards == 0) {
      context = std::make_unique<ParallelStreamContext>(schema, threads);
      engine = std::make_unique<TcmEngine>(q, context->graph());
    } else {
      auto sharded =
          std::make_unique<ShardedStreamContext>(schema, shards, threads);
      engine = std::make_unique<ShardedTcmEngine>(q, sharded->view());
      context = std::move(sharded);
    }
    engine->set_sink(&sink);
    context->Attach(engine.get());
  }
};

/// Direct calls that bypass the driver: a two-edge arrival batch, then
/// the remaining arrivals and every expiry one event at a time.
void DriveSingleEvents(const TemporalDataset& ds, SharedStreamContext* ctx) {
  ctx->OnEdgeArrivalBatch(ds.edges.data(), 2);
  for (size_t i = 2; i < ds.edges.size(); ++i) ctx->OnEdgeArrival(ds.edges[i]);
  for (const TemporalEdge& e : ds.edges) ctx->OnEdgeExpiry(e);
}

TEST(ShardedContextTest, UnbatchedEventsAfterABatchReachTheSink) {
  // Every context runs a single event as a batch of one. A pooled batch
  // interposes the buffered sinks; the single events after it must drain
  // those buffers too, or the matches of a trailing run of unbatched
  // events never reach the sink. Checked on the engine-parallel context
  // and on sharded contexts with and without a pool, through the driver
  // and through direct calls.
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (const Timestamp t : {1, 1, 5, 6}) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = 0;
    e.dst = 1;
    e.ts = t;
    ds.edges.push_back(e);
  }
  QueryGraph q(/*directed=*/false);
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddEdge(0, 1);
  const GraphSchema schema{false, ds.vertex_labels};
  StreamConfig config;
  config.window = 100;

  SharedStreamContext serial(schema);
  TcmEngine engine(q, serial.graph());
  CollectingSink serial_sink;
  engine.set_sink(&serial_sink);
  serial.Attach(&engine);
  ASSERT_TRUE(RunStream(ds, config, &serial).completed);
  EXPECT_EQ(serial_sink.matches().size(), 16u);  // 4 edges x 2 x (+, -)

  SharedStreamContext direct(schema);
  TcmEngine direct_engine(q, direct.graph());
  CollectingSink direct_sink;
  direct_engine.set_sink(&direct_sink);
  direct.Attach(&direct_engine);
  DriveSingleEvents(ds, &direct);
  EXPECT_EQ(direct_sink.matches().size(), 16u);

  struct Shape {
    size_t shards;
    size_t threads;
  };
  for (const Shape shape : {Shape{0, 4}, Shape{2, 2}, Shape{2, 1}}) {
    SCOPED_TRACE("shards=" + std::to_string(shape.shards) +
                 " threads=" + std::to_string(shape.threads));
    SingleEventRig driven(schema, q, shape.shards, shape.threads);
    ASSERT_TRUE(RunStream(ds, config, driven.context.get()).completed);
    EXPECT_EQ(driven.sink.matches(), serial_sink.matches());

    SingleEventRig called(schema, q, shape.shards, shape.threads);
    DriveSingleEvents(ds, called.context.get());
    EXPECT_EQ(called.sink.matches(), direct_sink.matches());
  }
}

TEST(ShardedContextDeathTest, CanonicalGraphIsACheckFailure) {
  // A sharded context never writes the canonical graph it inherits, so an
  // engine bound to graph() instead of view() would silently match
  // nothing. graph() fails loudly instead, at any shard count, while the
  // view serves the full vertex set.
  const GraphSchema schema{false, {0, 1, 0, 1}};
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedStreamContext context(schema, shards, /*num_threads=*/1);
    EXPECT_EQ(context.view().NumVertices(), 4u);
    EXPECT_DEATH(context.graph(), "bind to view");
  }
}

}  // namespace
}  // namespace tcsm
