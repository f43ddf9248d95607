#include <gtest/gtest.h>

#include <unordered_set>

#include "core/snapshot.h"
#include "testing/oracle.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

TEST(Snapshot, FullGraphMatchesOracle) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  const SnapshotResult res = FindAllMatches(ds, q);
  ASSERT_TRUE(res.completed);

  TemporalGraph g = testlib::RunningExampleGraph(14);
  std::vector<Embedding> expected;
  EnumerateEmbeddings(g, q, true, &expected);
  ASSERT_EQ(res.matches.size(), expected.size());
  const std::unordered_set<Embedding, EmbeddingHash> got(res.matches.begin(),
                                                         res.matches.end());
  for (const Embedding& e : expected) {
    EXPECT_EQ(got.count(e), 1u);
  }
}

TEST(Snapshot, CountAgreesWithFind) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  const SnapshotCount count = CountAllMatches(ds, q);
  const SnapshotResult find = FindAllMatches(ds, q);
  ASSERT_TRUE(count.completed && find.completed);
  EXPECT_EQ(count.matches, find.matches.size());
  EXPECT_EQ(count.matches, 16u);
}

TEST(Snapshot, WindowRestrictsMatches) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  SnapshotOptions opt;
  opt.window = 10;
  const SnapshotCount windowed = CountAllMatches(ds, q, opt);
  const SnapshotCount full = CountAllMatches(ds, q);
  ASSERT_TRUE(windowed.completed && full.completed);
  EXPECT_LT(windowed.matches, full.matches);
  EXPECT_EQ(windowed.matches, 6u);  // quickstart's windowed count
}

TEST(Snapshot, EngineConfigPassesThrough) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  SnapshotOptions opt;
  opt.engine_config.use_tc_filter = false;
  EXPECT_EQ(CountAllMatches(ds, q, opt).matches, 16u);
  opt.engine_config.prune_failing_set = false;
  EXPECT_EQ(CountAllMatches(ds, q, opt).matches, 16u);
}

TEST(Snapshot, EmptyDatasetFindsNothing) {
  const QueryGraph q = testlib::RunningExampleQuery();
  TemporalDataset empty;
  empty.vertex_labels = testlib::RunningExampleLabels();
  const SnapshotResult res = FindAllMatches(empty, q);
  EXPECT_TRUE(res.completed);
  EXPECT_TRUE(res.matches.empty());
}

}  // namespace
}  // namespace tcsm
