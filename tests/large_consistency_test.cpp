// Medium-scale randomized consistency: streams of a few thousand edges —
// well beyond what the brute-force oracle can check — where all engines
// and all TCM configurations must report identical match counts, and the
// DCS must satisfy its structural invariants mid-stream and at the end.
#include <gtest/gtest.h>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "baselines/timing_engine.h"
#include "common/rng.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

namespace tcsm {
namespace {

struct LargeCase {
  uint64_t seed;
  bool directed;
  size_t query_edges;
  double density;
};

class LargeConsistency : public ::testing::TestWithParam<LargeCase> {};

TEST_P(LargeConsistency, AllEnginesAgreeOnCounts) {
  const LargeCase param = GetParam();
  SyntheticSpec spec;
  spec.num_vertices = 150;
  spec.num_edges = 3000;
  spec.num_vertex_labels = 3;
  spec.num_edge_labels = 2;
  spec.avg_parallel_edges = 2.0;
  spec.directed = param.directed;
  spec.seed = param.seed;
  const TemporalDataset ds = GenerateSynthetic(spec);

  const Timestamp window = 400;
  QueryGenOptions opt;
  opt.num_edges = param.query_edges;
  opt.density = param.density;
  opt.window = window;
  Rng rng(param.seed + 99);
  QueryGraph q;
  if (!GenerateQuery(ds, opt, &rng, &q)) GTEST_SKIP();
  const GraphSchema schema{ds.directed, ds.vertex_labels};

  auto run = [&](auto* rig) -> std::pair<uint64_t, uint64_t> {
    CountingSink sink;
    rig->engine().set_sink(&sink);
    StreamConfig config;
    config.window = window;
    const StreamResult res = RunStream(ds, config, rig);
    EXPECT_TRUE(res.completed);
    return {res.occurred, res.expired};
  };

  SingleQueryContext<TcmEngine> reference(q, schema);
  const auto expect = run(&reference);
  reference.engine().dcs().ValidateInvariantsForTest();
  // Every match eventually expires once the stream drains.
  EXPECT_EQ(expect.first, expect.second);

  {
    TcmConfig c;
    c.prune_no_relation = false;
    c.prune_uniform = false;
    c.prune_failing_set = false;
    SingleQueryContext<TcmEngine> e(q, schema, c);
    EXPECT_EQ(run(&e), expect) << "TCM-Pruning";
  }
  {
    TcmConfig c;
    c.use_tc_filter = false;
    SingleQueryContext<TcmEngine> e(q, schema, c);
    EXPECT_EQ(run(&e), expect) << "TCM-NoFilter";
    e.engine().dcs().ValidateInvariantsForTest();
  }
  {
    SingleQueryContext<PostFilterEngine> e(q, schema);
    EXPECT_EQ(run(&e), expect) << "SymBi-Post";
  }
  {
    SingleQueryContext<LocalEnumEngine> e(q, schema);
    EXPECT_EQ(run(&e), expect) << "LocalEnum";
  }
  {
    SingleQueryContext<TimingEngine> e(q, schema);
    EXPECT_EQ(run(&e), expect) << "Timing";
    EXPECT_FALSE(e.overflowed());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LargeConsistency,
    ::testing::Values(LargeCase{61, false, 4, 0.5},
                      LargeCase{62, true, 4, 0.25},
                      LargeCase{63, false, 5, 1.0},
                      LargeCase{64, true, 5, 0.0},
                      LargeCase{65, false, 6, 0.75},
                      LargeCase{66, true, 6, 0.5}));

// The TCM phase counters must be populated and sum to roughly the elapsed
// stream time (sanity of the instrumentation used by the phase bench).
TEST(LargeConsistency, PhaseCountersPopulated) {
  SyntheticSpec spec;
  spec.num_vertices = 100;
  spec.num_edges = 2000;
  spec.num_vertex_labels = 2;
  spec.seed = 5;
  const TemporalDataset ds = GenerateSynthetic(spec);
  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = 300;
  Rng rng(5);
  QueryGraph q;
  ASSERT_TRUE(GenerateQuery(ds, opt, &rng, &q));
  SingleQueryContext<TcmEngine> run(q,
                                    GraphSchema{ds.directed, ds.vertex_labels});
  CountingSink sink;
  run.engine().set_sink(&sink);
  StreamConfig config;
  config.window = 300;
  const StreamResult res = RunStream(ds, config, &run);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(run.engine().counters().update_ns, 0u);
  EXPECT_GT(run.engine().counters().search_ns, 0u);
  const double accounted_ms =
      static_cast<double>(run.engine().counters().update_ns +
                          run.engine().counters().search_ns) /
      1e6;
  EXPECT_LE(accounted_ms, res.elapsed_ms * 1.5 + 5);
}

}  // namespace
}  // namespace tcsm
