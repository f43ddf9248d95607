// Storage scaling: throughput and memory of the label-partitioned,
// slot-recycled graph storage across label-alphabet sizes {1, 4, 16} and
// stream lengths {1x, 10x} the window.
//
// Every scan touches only the statically feasible (edge label, neighbor
// label) bucket; the scan counters on each BENCH line show the work per
// cell. The rows keep their "mode":"partitioned" identity key so the
// pinned baseline keeps matching. The 10x-window rows double as the
// memory story: peak bytes must track the window, not the stream length
// (slot recycling).
//
// Each measurement is one BENCH JSON line (bench_util/bench_json.h).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/experiment.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

using namespace tcsm;

namespace {

struct Cell {
  size_t labels;
  size_t stream_factor;  // stream length in windows
  TemporalDataset dataset;
  std::vector<QueryGraph> queries;
  Timestamp window;
};

struct Measurement {
  double elapsed_ms = 0;
  size_t events = 0;
  size_t peak_bytes = 0;
  size_t peak_event_index = 0;
  uint64_t occurred = 0;
  uint64_t scanned = 0;
  uint64_t matched = 0;
};

Measurement Run(const Cell& cell) {
  StreamConfig stream;
  stream.window = cell.window;

  Measurement out;
  for (const QueryGraph& q : cell.queries) {
    SingleQueryContext<TcmEngine> run(
        q, GraphSchema{cell.dataset.directed, cell.dataset.vertex_labels});
    const StreamResult res = RunStream(cell.dataset, stream, &run);
    out.elapsed_ms += res.elapsed_ms;
    out.events += res.events;
    if (res.peak_memory_bytes > out.peak_bytes) {
      out.peak_event_index = res.peak_memory_event_index;
      out.peak_bytes = res.peak_memory_bytes;
    }
    out.occurred += res.occurred;
    out.scanned += res.adj_entries_scanned;
    out.matched += res.adj_entries_matched;
  }
  return out;
}

void Emit(const Cell& cell, const Measurement& m) {
  const double secs = m.elapsed_ms / 1000.0;
  BenchJsonLine line("storage_scaling");
  line.Field("mode", "partitioned")
      .Field("labels", static_cast<uint64_t>(cell.labels))
      .Field("stream_windows", static_cast<uint64_t>(cell.stream_factor))
      .Field("window", static_cast<uint64_t>(cell.window))
      .Field("events", static_cast<uint64_t>(m.events))
      .Field("elapsed_ms", m.elapsed_ms)
      .Field("events_per_sec",
             secs > 0 ? static_cast<double>(m.events) / secs : 0.0)
      .Field("peak_bytes", static_cast<uint64_t>(m.peak_bytes))
      .Field("peak_event_index", static_cast<uint64_t>(m.peak_event_index))
      .Field("occurred", m.occurred)
      .Field("adj_entries_scanned", m.scanned)
      .Field("adj_entries_matched", m.matched);
  line.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  const Timestamp window =
      std::max<Timestamp>(64, static_cast<Timestamp>(600 * args.scale));

  std::cout << "=== Storage scaling: label-partitioned adjacency "
               "(window=" << window << " events) ===\n";

  for (const size_t labels : {size_t{1}, size_t{4}, size_t{16}}) {
    for (const size_t factor : {size_t{1}, size_t{10}}) {
      Cell cell;
      cell.labels = labels;
      cell.stream_factor = factor;
      // The unlabeled control cell pays O(candidate-pairs) filter churn
      // per event (every data vertex is compatible with every query
      // vertex), so it runs at a quarter of the window to stay tractable;
      // the {1x, 10x} stream-length axis is relative to the window either
      // way.
      cell.window = labels == 1 ? window / 4 : window;

      SyntheticSpec spec;
      spec.name = "storage_scaling";
      // Hold the per-signature in-window density constant across
      // alphabets: total degree grows with the alphabet (richer traffic)
      // while the live subgraph any one query sees stays comparable. This
      // keeps the 1-label cell tractable (unlabeled matches explode with
      // degree) and makes the 16-label cell degree-heavy, which is the
      // regime the partitioning targets.
      // The 1-label control cell gets a sparser graph (unlabeled match
      // counts grow explosively with degree, and the cell only measures
      // the case where every entry shares one bucket); labeled cells
      // concentrate degree so scans matter.
      spec.num_vertices =
          labels == 1 ? static_cast<size_t>(cell.window) / 2
                      : std::max<size_t>(
                            16, static_cast<size_t>(window) / (4 * labels));
      spec.num_edges = factor * static_cast<size_t>(cell.window);
      spec.num_vertex_labels = labels;
      spec.num_edge_labels = std::max<size_t>(1, labels / 4);
      spec.avg_parallel_edges = 1.6;
      spec.degree_skew = 0.9;
      spec.seed = args.seed + labels;
      cell.dataset = GenerateSynthetic(spec);

      QueryGenOptions opt;
      opt.num_edges = 4;
      opt.density = 1.0;
      opt.window = cell.window;
      cell.queries = GenerateQuerySet(cell.dataset, opt,
                                      args.queries_per_set, args.seed + 1);
      if (cell.queries.empty()) {
        std::cerr << "could not generate queries for labels=" << labels
                  << "\n";
        return 1;
      }

      const Measurement m = Run(cell);
      Emit(cell, m);
      std::cout << "labels=" << labels << " stream=" << factor << "x: "
                << m.elapsed_ms << " ms, scans " << m.scanned << ", peak "
                << m.peak_bytes / 1024 << " KiB\n";
    }
  }
  return 0;
}
