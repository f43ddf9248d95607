// Scan-selectivity counters (adj_entries_scanned / adj_entries_matched):
// the measurable surface of the label-partitioned adjacency. TCM scans
// only the statically feasible (edge label, neighbor label) bucket, so
// every visited entry passes the label checks; only a directed bucket's
// wrong-direction entries are scanned without matching.
#include <gtest/gtest.h>

#include "baselines/local_enum_engine.h"
#include "baselines/timing_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

namespace tcsm {
namespace {

struct Workload {
  TemporalDataset dataset;
  QueryGraph query;
  GraphSchema schema;
  StreamConfig config;
};

/// A richly labeled stream where most adjacency entries are statically
/// infeasible for any one query edge — the regime the partitioning targets.
Workload ManyLabelWorkload() {
  SyntheticSpec spec;
  spec.name = "scan_counters";
  spec.num_vertices = 60;
  spec.num_edges = 1500;
  spec.num_vertex_labels = 6;
  spec.num_edge_labels = 3;
  spec.avg_parallel_edges = 1.6;
  spec.seed = 20240721;
  Workload w;
  w.dataset = GenerateSynthetic(spec);
  w.config.window = 60;
  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = w.config.window;
  Rng rng(spec.seed);
  EXPECT_TRUE(GenerateQuery(w.dataset, opt, &rng, &w.query));
  w.schema = GraphSchema{w.dataset.directed, w.dataset.vertex_labels};
  return w;
}

TEST(ScanCounters, BucketScansVisitOnlyFeasibleEntries) {
  // Undirected buckets hold exactly the entries of one signature, so
  // every scanned entry matches.
  const Workload w = ManyLabelWorkload();
  SingleQueryContext<TcmEngine> run(w.query, w.schema);
  const StreamResult res = RunStream(w.dataset, w.config, &run);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.adj_entries_scanned, 0u);
  EXPECT_EQ(res.adj_entries_scanned, res.adj_entries_matched);
}

TEST(ScanCounters, SurfaceThroughEngineCountersAndAggregation) {
  const Workload w = ManyLabelWorkload();
  SingleQueryContext<TcmEngine> run(w.query, w.schema);
  const StreamResult res = RunStream(w.dataset, w.config, &run);
  ASSERT_TRUE(res.completed);
  const EngineCounters& c = run.engine().counters();
  EXPECT_EQ(c.adj_entries_scanned, res.adj_entries_scanned);
  EXPECT_EQ(c.adj_entries_matched, res.adj_entries_matched);
  EXPECT_EQ(run.AggregateCounters().adj_entries_scanned,
            c.adj_entries_scanned);
}

TEST(ScanCounters, BaselineEnginesCountTheirScans) {
  const Workload w = ManyLabelWorkload();
  {
    SingleQueryContext<LocalEnumEngine> run(w.query, w.schema);
    const StreamResult res = RunStream(w.dataset, w.config, &run);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.adj_entries_scanned, 0u);
    EXPECT_GE(res.adj_entries_scanned, res.adj_entries_matched);
  }
  {
    SingleQueryContext<TimingEngine> run(w.query, w.schema);
    const StreamResult res = RunStream(w.dataset, w.config, &run);
    ASSERT_TRUE(res.completed);
    EXPECT_GE(res.adj_entries_scanned, res.adj_entries_matched);
  }
}

}  // namespace
}  // namespace tcsm
