// Micro-batching speedup: events/sec with the driver's same-timestamp
// coalescing on (default max_batch) versus off (max_batch = 1, the
// historical one-call-per-event behavior), on a same-timestamp-heavy
// synthetic stream (SyntheticSpec::ts_coalesce) at 1 and 4 threads.
//
// What the ratio measures (DESIGN.md §9): the match stream is identical
// in every configuration — batching only amortizes per-event fixed
// costs. Serially that is the driver-loop bookkeeping (small). Through
// the parallel fan-out every delivery — an unbatched event is a batch of
// one — is one pipelined pool job, so a batch of k same-timestamp events
// replaces k job publications (and the step fences between their
// phases run back to back instead of around the driver's loop) with one.
// Correctness is re-checked on the fly: every configuration must report
// the unbatched serial run's occurred count.
//
// The `batch_speedup` field is batched vs unbatched at the same thread
// count. `events_per_sec` feeds the perf-regression gate
// (tools/bench_compare.py against bench/baselines/).
#include <iostream>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/experiment.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

using namespace tcsm;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  SyntheticSpec spec;
  spec.name = "batching";
  spec.num_vertices =
      std::max<size_t>(16, static_cast<size_t>(400 * args.scale));
  spec.num_edges =
      std::max<size_t>(64, static_cast<size_t>(10000 * args.scale));
  // Wide label alphabet: most events are statically irrelevant to any one
  // engine, so the per-event cost is dominated by the fan-out machinery
  // itself — the fixed cost that batching amortizes. (A match-heavy
  // preset would only measure backtracking, which batching leaves
  // untouched; bench_parallel_scaling covers that regime.)
  spec.num_vertex_labels = 8;
  spec.num_edge_labels = 4;
  spec.avg_parallel_edges = 2.0;
  // Same-second burst feed: runs of 8 consecutive arrivals share one
  // timestamp, so the driver's equal-ts coalescing has real batches.
  spec.ts_coalesce = 8;
  spec.seed = args.seed;
  const TemporalDataset ds = GenerateSynthetic(spec);
  // Window in coalesced-instant units (|E| / ts_coalesce distinct
  // timestamps): hold ~1/10 of the stream live, as bench_parallel_scaling.
  const Timestamp window = std::max<Timestamp>(
      1, static_cast<Timestamp>(ds.NumEdges() / spec.ts_coalesce / 10));

  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = window;
  const size_t kQueries = 16;
  const std::vector<QueryGraph> pool =
      GenerateQuerySet(ds, opt, kQueries, args.seed + 1);
  if (pool.empty()) {
    std::cerr << "could not generate any query for the preset\n";
    return 1;
  }
  std::vector<QueryGraph> queries;
  queries.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) queries.push_back(pool[i % pool.size()]);

  std::cout << "=== Micro-batching: events/sec, batched vs unbatched "
               "(|E|=" << ds.NumEdges() << ", ts_coalesce=" << spec.ts_coalesce
            << ", window=" << window << ", queries=" << kQueries << ") ===\n";

  uint64_t reference_occurred = 0;
  bool have_reference = false;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    double unbatched_ms = 0;
    for (const size_t max_batch : {size_t{1}, size_t{0}}) {
      StreamConfig config;
      config.window = window;
      config.max_batch = max_batch;
      MultiQueryEngine engine(queries, SchemaOf(ds), TcmConfig{}, threads);
      const StreamResult res = RunStream(ds, config, &engine);
      if (!have_reference) {
        have_reference = true;
        reference_occurred = res.occurred;
      } else if (res.occurred != reference_occurred) {
        std::cerr << "ERROR: occurred counts diverged (threads=" << threads
                  << ", max_batch=" << max_batch << ")\n";
        return 1;
      }
      const bool batched = max_batch != 1;
      if (!batched) unbatched_ms = res.elapsed_ms;
      const double secs = res.elapsed_ms / 1000.0;
      const double speedup =
          batched && res.elapsed_ms > 0 ? unbatched_ms / res.elapsed_ms : 1.0;
      BenchJsonLine line("batching");
      line.Field("queries", static_cast<uint64_t>(kQueries))
          .Field("threads", static_cast<uint64_t>(res.num_threads))
          .Field("batched", static_cast<uint64_t>(batched ? 1 : 0))
          .Field("events", static_cast<uint64_t>(res.events))
          .Field("elapsed_ms", res.elapsed_ms)
          .Field("events_per_sec",
                 secs > 0 ? static_cast<double>(res.events) / secs : 0.0)
          .Field("occurred", res.occurred)
          .Field("batch_speedup", speedup);
      line.Print(std::cout);
      std::cout << "threads=" << threads << " "
                << (batched ? "batched" : "unbatched") << ": "
                << res.elapsed_ms << " ms"
                << (batched ? " (" + std::to_string(speedup) + "x unbatched)"
                            : std::string())
                << "\n";
    }
  }
  return 0;
}
