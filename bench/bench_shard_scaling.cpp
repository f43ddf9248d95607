// Sharded execution scaling: events/sec versus the shard count of the
// ShardedStreamContext (1, 2, 4, 8 shards, each with a pool as wide as
// its shard count) at 16 and 64 concurrently monitored queries. The
// 1-shard measurement IS the serial path (one thread runs the serial
// base loops), so the speedup column reads directly as
// "vertex-partitioned storage under the engine fan-out vs. serial".
// Each measurement is emitted as a BENCH JSON line
// (bench_util/bench_json.h) with the shard count as an identity key.
//
// The workload mirrors bench_parallel_scaling (small label alphabet,
// wide window) so most events survive TcmEngine::Relevant and reach the
// filter/DCS/backtracking work the pool spreads across engines; a bench
// dominated by irrelevant events would measure only pipeline overhead.
// Correctness is re-checked on the fly: every shard count must report
// exactly the occurred count of an unsharded MultiQueryEngine run (the
// byte-level differential guarantee lives in stream_fuzz_test's
// ShardedMatchesSerial scenario).
#include <iostream>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/experiment.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"
#include "shard/sharded_engine.h"

using namespace tcsm;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  SyntheticSpec spec;
  spec.name = "shard";
  spec.num_vertices =
      std::max<size_t>(16, static_cast<size_t>(400 * args.scale));
  spec.num_edges =
      std::max<size_t>(64, static_cast<size_t>(10000 * args.scale));
  spec.num_vertex_labels = 4;
  spec.num_edge_labels = 2;
  spec.avg_parallel_edges = 2.0;
  spec.seed = args.seed;
  const TemporalDataset ds = GenerateSynthetic(spec);
  const Timestamp window =
      std::max<Timestamp>(1, static_cast<Timestamp>(ds.NumEdges() / 10));

  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = window;
  const size_t kMaxQueries = 64;
  const std::vector<QueryGraph> pool =
      GenerateQuerySet(ds, opt, kMaxQueries, args.seed + 1);
  if (pool.empty()) {
    std::cerr << "could not generate any query for the preset\n";
    return 1;
  }

  std::cout << "=== Sharded execution scaling: events/sec vs shards "
               "(|E|=" << ds.NumEdges() << ", window=" << window << ") ===\n";

  StreamConfig config;
  config.window = window;
  for (const size_t n : {size_t{16}, size_t{64}}) {
    std::vector<QueryGraph> queries;
    queries.reserve(n);
    for (size_t i = 0; i < n; ++i) queries.push_back(pool[i % pool.size()]);

    // Unsharded ground truth for the on-the-fly correctness check.
    uint64_t serial_occurred = 0;
    {
      MultiQueryEngine reference(queries, SchemaOf(ds), TcmConfig{},
                                 /*num_threads=*/1);
      serial_occurred = RunStream(ds, config, &reference).occurred;
    }

    double serial_ms = 0;
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ShardedMultiQueryEngine engine(queries, SchemaOf(ds), TcmConfig{},
                                     shards);
      const StreamResult res = RunStream(ds, config, &engine);
      if (res.occurred != serial_occurred) {
        std::cerr << "ERROR: occurred counts diverged at " << shards
                  << " shards\n";
        return 1;
      }
      if (shards == 1) serial_ms = res.elapsed_ms;
      const double secs = res.elapsed_ms / 1000.0;
      const double speedup =
          res.elapsed_ms > 0 ? serial_ms / res.elapsed_ms : 0.0;
      BenchJsonLine line("shard_scaling");
      line.Field("queries", static_cast<uint64_t>(n))
          .Field("shards", static_cast<uint64_t>(res.num_shards))
          .Field("threads", static_cast<uint64_t>(res.num_threads))
          .Field("events", static_cast<uint64_t>(res.events))
          .Field("elapsed_ms", res.elapsed_ms)
          .Field("events_per_sec",
                 secs > 0 ? static_cast<double>(res.events) / secs : 0.0)
          .Field("occurred", res.occurred)
          .Field("speedup_vs_serial", speedup);
      line.Print(std::cout);
      std::cout << "queries=" << n << " shards=" << shards << ": "
                << res.elapsed_ms << " ms (" << speedup << "x serial)\n";
    }
  }
  return 0;
}
