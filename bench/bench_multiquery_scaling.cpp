// Multi-query scaling: events/sec and peak memory vs. the number of
// concurrently monitored queries (1, 4, 16, 64) on a synthetic preset.
// Two modes per query count:
//   * shared      — one MultiQueryEngine: the SharedStreamContext applies
//                   each event to the one canonical graph once and fans it
//                   out to N per-query engines (the post-refactor design).
//   * replicated  — N independent single-query contexts, each owning a
//                   private copy of the windowed graph (the
//                   pre-refactor per-engine-copy baseline, reproduced for
//                   an apples-to-apples before/after comparison).
// Each measurement is emitted as a BENCH JSON line (bench_util/
// bench_json.h) so the sharing win is recorded in the perf trajectory.
//
// The workload mirrors the deployment story of the multi-query engine
// (many selective patterns, most events irrelevant to most patterns):
// a labeled interaction graph with 8 vertex / 4 edge labels and 4-edge
// queries, so per-event index work is small and the per-query graph
// maintenance of the replicated mode dominates.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util/bench_json.h"
#include "common/timer.h"
#include "bench_util/experiment.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

using namespace tcsm;

namespace {

struct Measurement {
  double elapsed_ms = 0;
  size_t events = 0;
  size_t peak_bytes = 0;
  uint64_t occurred = 0;
  uint64_t adj_entries_scanned = 0;
  uint64_t adj_entries_matched = 0;
};

Measurement RunShared(const TemporalDataset& ds,
                      const std::vector<QueryGraph>& queries,
                      const StreamConfig& config) {
  MultiQueryEngine engine(queries, SchemaOf(ds));
  const StreamResult res = RunStream(ds, config, &engine);
  return Measurement{res.elapsed_ms, res.events, res.peak_memory_bytes,
                     res.occurred, res.adj_entries_scanned,
                     res.adj_entries_matched};
}

Measurement RunReplicated(const TemporalDataset& ds,
                          const std::vector<QueryGraph>& queries,
                          const StreamConfig& config) {
  // One private context (and thus one private graph copy) per query, with
  // every event forwarded to all contexts before the next one — exactly
  // the pre-refactor MultiQueryEngine behavior, where each per-query
  // engine applied the event to its own graph.
  std::vector<std::unique_ptr<SingleQueryContext<TcmEngine>>> runs;
  runs.reserve(queries.size());
  for (const QueryGraph& q : queries) {
    runs.push_back(
        std::make_unique<SingleQueryContext<TcmEngine>>(q, SchemaOf(ds)));
  }

  Measurement out;
  const size_t n = ds.edges.size();
  StopWatch watch;
  size_t arr = 0;
  size_t exp = 0;
  while (arr < n || exp < arr) {
    const bool do_expire =
        exp < arr && (arr >= n || ds.edges[exp].ts + config.window <=
                                      ds.edges[arr].ts);
    if (do_expire) {
      for (auto& run : runs) run->OnEdgeExpiry(ds.edges[exp]);
      ++exp;
    } else {
      for (auto& run : runs) run->OnEdgeArrival(ds.edges[arr]);
      ++arr;
    }
    ++out.events;
    // Observed after every event, as the stream driver does; the
    // contexts coexist, so their footprints add.
    size_t current = 0;
    for (auto& run : runs) current += run->EstimateMemoryBytes();
    out.peak_bytes = std::max(out.peak_bytes, current);
  }
  out.elapsed_ms = watch.ElapsedMs();
  for (auto& run : runs) {
    const EngineCounters c = run->AggregateCounters();
    out.occurred += c.occurred;
    out.adj_entries_scanned += c.adj_entries_scanned;
    out.adj_entries_matched += c.adj_entries_matched;
  }
  return out;
}

void Emit(const char* mode, size_t num_queries, const Measurement& m) {
  const double secs = m.elapsed_ms / 1000.0;
  BenchJsonLine line("multiquery_scaling");
  line.Field("mode", mode)
      .Field("queries", static_cast<uint64_t>(num_queries))
      .Field("events", static_cast<uint64_t>(m.events))
      .Field("elapsed_ms", m.elapsed_ms)
      .Field("events_per_sec",
             secs > 0 ? static_cast<double>(m.events) / secs : 0.0)
      .Field("peak_bytes", static_cast<uint64_t>(m.peak_bytes))
      .Field("occurred", m.occurred)
      .Field("adj_entries_scanned", m.adj_entries_scanned)
      .Field("adj_entries_matched", m.adj_entries_matched);
  line.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  // Selective patterns over a richly labeled graph: most events are
  // irrelevant to most queries, as in the IDS/fraud deployments that
  // motivate multi-query monitoring.
  SyntheticSpec spec;
  spec.name = "multiquery";
  spec.num_vertices =
      std::max<size_t>(16, static_cast<size_t>(1200 * args.scale));
  spec.num_edges =
      std::max<size_t>(64, static_cast<size_t>(40000 * args.scale));
  spec.num_vertex_labels = 16;
  spec.num_edge_labels = 4;
  spec.avg_parallel_edges = 1.5;
  spec.seed = args.seed;
  const TemporalDataset ds = GenerateSynthetic(spec);
  const Timestamp window =
      std::max<Timestamp>(1, static_cast<Timestamp>(ds.NumEdges() / 16));

  QueryGenOptions opt;
  opt.num_edges = 5;
  opt.density = 1.0;
  opt.window = window;
  const size_t kMaxQueries = 64;
  const std::vector<QueryGraph> pool =
      GenerateQuerySet(ds, opt, kMaxQueries, args.seed + 1);
  if (pool.empty()) {
    std::cerr << "could not generate any query for the preset\n";
    return 1;
  }

  std::cout << "=== Multi-query scaling: shared graph vs per-query copies "
               "(|E|=" << ds.NumEdges() << ", window=" << window << ") ===\n";

  StreamConfig config;
  config.window = window;
  for (const size_t n : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    // Cycle the pool if it yielded fewer than n distinct queries.
    std::vector<QueryGraph> queries;
    queries.reserve(n);
    for (size_t i = 0; i < n; ++i) queries.push_back(pool[i % pool.size()]);

    const Measurement shared = RunShared(ds, queries, config);
    Emit("shared", n, shared);
    const Measurement replicated = RunReplicated(ds, queries, config);
    Emit("replicated", n, replicated);
    const double speedup = shared.elapsed_ms > 0
                               ? replicated.elapsed_ms / shared.elapsed_ms
                               : 0.0;
    std::cout << "n=" << n << ": shared " << shared.elapsed_ms
              << " ms, replicated " << replicated.elapsed_ms << " ms ("
              << speedup << "x), peak " << shared.peak_bytes / 1024
              << " KiB vs " << replicated.peak_bytes / 1024 << " KiB\n";
    if (shared.occurred != replicated.occurred) {
      std::cerr << "ERROR: shared/replicated match counts diverged\n";
      return 1;
    }
  }
  return 0;
}
