// Round-trip guarantee of the io/ subsystem (DESIGN.md §8): exporting a
// stream to `.tel` and replaying it off the file must produce a match
// stream byte-identical to driving the same events from memory — per
// query and globally, serial and sharded — over the whole fuzz-scenario
// catalogue. Also pins the checked-in Figure 2 files (tests/data/) to the
// in-tree running-example fixtures so the documented worked example can
// never drift from the code.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "io/stream_writer.h"
#include "query/query_io.h"
#include "querygen/query_generator.h"
#include "shard/sharded_engine.h"
#include "testlib/fuzz_scenarios.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

using testlib::DefaultFuzzScenarios;
using testlib::FuzzScenario;

using MatchStream = std::vector<std::pair<Embedding, MatchKind>>;

struct TaggedStreams : MultiMatchSink {
  explicit TaggedStreams(size_t n) : streams(n) {}
  std::vector<MatchStream> streams;
  void OnMatch(size_t query_index, const Embedding& embedding,
               MatchKind kind, uint64_t multiplicity) override {
    ASSERT_LT(query_index, streams.size());
    for (uint64_t i = 0; i < multiplicity; ++i) {
      streams[query_index].emplace_back(embedding, kind);
    }
  }
};

std::string ScenarioName(const ::testing::TestParamInfo<FuzzScenario>& info) {
  return info.param.name;
}

class IoRoundTrip : public ::testing::TestWithParam<FuzzScenario> {
 protected:
  void SetUp() override {
    const FuzzScenario& sc = GetParam();
    dataset_ = GenerateSynthetic(sc.spec);
    ASSERT_GT(dataset_.NumEdges(), 0u);
    QueryGraph primary;
    Rng rng(sc.seed ^ 0x9e3779b97f4a7c15ull);
    ASSERT_TRUE(GenerateQuery(dataset_, sc.query, &rng, &primary));
    queries_.push_back(primary);
    QueryGraph variant;
    Rng vrng(sc.seed ^ 0x517cc1b727220a95ull);
    queries_.push_back(GenerateQuery(dataset_, sc.query, &vrng, &variant)
                           ? variant
                           : primary);
    schema_ = GraphSchema{dataset_.directed, dataset_.vertex_labels};
  }

  /// In-memory reference: serial MultiQueryEngine over the dataset.
  void RunInMemory(TaggedStreams* tagged, uint64_t* total) {
    MultiQueryEngine engine(queries_, schema_);
    engine.set_multi_sink(tagged);
    StreamConfig config;
    config.window = GetParam().window;
    const StreamResult res = RunStream(dataset_, config, &engine);
    ASSERT_TRUE(res.completed);
    *total = res.occurred + res.expired;
  }

  /// File-driven run: parse `tel` and replay it through a fresh engine
  /// fan-out at `threads`, pulling the window from the file header.
  void RunFromTel(const std::string& tel, size_t threads,
                  TaggedStreams* tagged, uint64_t* total) {
    std::istringstream in(tel);
    StreamReader reader(in, GetParam().name + ".tel");
    ASSERT_TRUE(reader.Init().ok());
    ASSERT_TRUE(reader.has_vertex_universe());
    // The file must reconstruct the exact schema the engines bind to.
    const GraphSchema file_schema = reader.schema();
    ASSERT_EQ(file_schema.directed, schema_.directed);
    ASSERT_EQ(file_schema.vertex_labels, schema_.vertex_labels);
    MultiQueryEngine engine(queries_, file_schema, TcmConfig{}, threads);
    engine.set_multi_sink(tagged);
    auto res = ReplayStream(&reader, ReplayOptions{}, &engine);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(res.value().completed);
    EXPECT_EQ(res.value().num_threads, threads);
    *total = res.value().occurred + res.value().expired;
  }

  TemporalDataset dataset_;
  std::vector<QueryGraph> queries_;
  GraphSchema schema_;
};

// Export -> parse restores the dataset exactly: edge list (with ids),
// vertex labels, directedness, and the recorded window.
TEST_P(IoRoundTrip, DatasetSurvivesExportParse) {
  TelWriteOptions opts;
  opts.window = GetParam().window;
  std::ostringstream out;
  ASSERT_TRUE(WriteTel(dataset_, opts, out).ok());

  std::istringstream in(out.str());
  TelHeader header;
  auto parsed = ReadTelDataset(in, "roundtrip.tel", &header);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TemporalDataset& ds = parsed.value();
  EXPECT_EQ(header.window, GetParam().window);
  EXPECT_EQ(ds.directed, dataset_.directed);
  EXPECT_EQ(ds.vertex_labels, dataset_.vertex_labels);
  ASSERT_EQ(ds.NumEdges(), dataset_.NumEdges());
  for (size_t i = 0; i < ds.edges.size(); ++i) {
    EXPECT_EQ(ds.edges[i].id, dataset_.edges[i].id);
    EXPECT_EQ(ds.edges[i].src, dataset_.edges[i].src);
    EXPECT_EQ(ds.edges[i].dst, dataset_.edges[i].dst);
    EXPECT_EQ(ds.edges[i].ts, dataset_.edges[i].ts);
    EXPECT_EQ(ds.edges[i].label, dataset_.edges[i].label);
  }
}

// The acceptance bar of the io/ subsystem: file replay is
// match-stream-identical to in-memory replay, per query and globally, at
// 1 and 4 threads.
TEST_P(IoRoundTrip, FileReplayMatchesInMemory) {
  TaggedStreams serial(queries_.size());
  uint64_t serial_total = 0;
  RunInMemory(&serial, &serial_total);
  if (HasFailure()) return;

  TelWriteOptions opts;
  opts.window = GetParam().window;
  std::ostringstream out;
  ASSERT_TRUE(WriteTel(dataset_, opts, out).ok());

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TaggedStreams replayed(queries_.size());
    uint64_t replay_total = 0;
    RunFromTel(out.str(), threads, &replayed, &replay_total);
    if (HasFailure()) return;
    EXPECT_EQ(replay_total, serial_total);
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      EXPECT_EQ(replayed.streams[qi], serial.streams[qi])
          << "per-query stream of query " << qi
          << " diverged from the in-memory run";
    }
  }
}

// An explicit-expiry export materializes the event schedule as x records;
// replaying it (no window parameter at all) must reproduce the same match
// stream — the self-contained form fuzz failures are shared in.
TEST_P(IoRoundTrip, ExplicitExpiryReplayMatches) {
  TaggedStreams serial(queries_.size());
  uint64_t serial_total = 0;
  RunInMemory(&serial, &serial_total);
  if (HasFailure()) return;

  TelWriteOptions opts;
  opts.window = GetParam().window;
  opts.explicit_expiry = true;
  std::ostringstream out;
  ASSERT_TRUE(WriteTel(dataset_, opts, out).ok());

  TaggedStreams replayed(queries_.size());
  uint64_t replay_total = 0;
  RunFromTel(out.str(), 1, &replayed, &replay_total);
  if (HasFailure()) return;
  EXPECT_EQ(replay_total, serial_total);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    EXPECT_EQ(replayed.streams[qi], serial.streams[qi]);
  }
}

// The binary v2 framing carries the same guarantee: a binary export —
// either block encoding, including multi-block framing — replays
// match-stream-identical to the in-memory run (and so, transitively, to
// the text replay above) at 1 and 4 threads.
TEST_P(IoRoundTrip, BinaryReplayMatchesInMemory) {
  TaggedStreams serial(queries_.size());
  uint64_t serial_total = 0;
  RunInMemory(&serial, &serial_total);
  if (HasFailure()) return;

  for (const bool varint : {false, true}) {
    TelWriteOptions opts;
    opts.window = GetParam().window;
    opts.binary = true;
    opts.varint_timestamps = varint;
    opts.block_records = 7;  // small blocks: the framing is exercised
    std::ostringstream out;
    ASSERT_TRUE(WriteTel(dataset_, opts, out).ok());

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(varint ? "varint" : "fixed") + " threads " +
                   std::to_string(threads));
      TaggedStreams replayed(queries_.size());
      uint64_t replay_total = 0;
      RunFromTel(out.str(), threads, &replayed, &replay_total);
      if (HasFailure()) return;
      EXPECT_EQ(replay_total, serial_total);
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        EXPECT_EQ(replayed.streams[qi], serial.streams[qi])
            << "per-query stream of query " << qi
            << " diverged from the in-memory run";
      }
    }
  }
}

// Binary replay through the vertex-partitioned sharded fan-out is also
// identical to the serial in-memory run.
TEST_P(IoRoundTrip, ShardedBinaryReplayMatchesSerial) {
  TaggedStreams serial(queries_.size());
  uint64_t serial_total = 0;
  RunInMemory(&serial, &serial_total);
  if (HasFailure()) return;

  TelWriteOptions opts;
  opts.window = GetParam().window;
  opts.binary = true;
  opts.block_records = 7;
  std::ostringstream out;
  ASSERT_TRUE(WriteTel(dataset_, opts, out).ok());

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                   std::to_string(threads));
      std::istringstream in(out.str());
      StreamReader reader(in, GetParam().name + ".tel");
      ASSERT_TRUE(reader.Init().ok());
      TaggedStreams sharded(queries_.size());
      ShardedMultiQueryEngine engine(queries_, reader.schema(), TcmConfig{},
                                     shards, threads);
      engine.set_multi_sink(&sharded);
      auto res = ReplayStream(&reader, ReplayOptions{}, &engine);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ASSERT_TRUE(res.value().completed);
      EXPECT_EQ(res.value().num_shards, shards);
      EXPECT_EQ(res.value().occurred + res.value().expired, serial_total);
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        EXPECT_EQ(sharded.streams[qi], serial.streams[qi])
            << "per-query stream of query " << qi
            << " diverged from serial execution";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalogue, IoRoundTrip,
                         ::testing::ValuesIn(DefaultFuzzScenarios()),
                         ScenarioName);

// --seek-ts at a window-complete block boundary (a >= window timestamp
// gap aligned to the block framing, so no pre-seek edge is still live and
// no match spans the cut) must produce exactly the suffix of the full
// replay's match stream: same embeddings, same EdgeIds, same order. This
// is the replayable-from-the-middle guarantee the index footer plus
// first_arrival_index exist for.
TEST(BinarySeek, SeekReplayIsFullReplaySuffix) {
  // Two copies of the running example (window 10), the second shifted far
  // past the first's last expiry and starting its own block.
  TemporalDataset ds = testlib::RunningExampleDataset();
  const size_t n = ds.NumEdges();
  ASSERT_GT(n, 0u);
  const Timestamp shift = ds.edges.back().ts + 10 + 25;
  for (size_t i = 0; i < n; ++i) {
    TemporalEdge e = ds.edges[i];
    e.id = static_cast<EdgeId>(n + i);
    e.ts += shift;
    ds.edges.push_back(e);
  }

  TelWriteOptions opts;
  opts.binary = true;
  opts.window = 10;
  opts.block_records = n;  // the gap lands exactly on a block boundary
  std::ostringstream out;
  ASSERT_TRUE(WriteTel(ds, opts, out).ok());
  const std::string tel = out.str();

  const std::vector<QueryGraph> queries{testlib::RunningExampleQuery()};
  const auto replay = [&](bool seek) {
    std::istringstream in(tel);
    StreamReader reader(in, "seek.tel");
    EXPECT_TRUE(reader.Init().ok());
    if (seek) {
      const Status s = reader.SeekToTimestamp(shift);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(reader.first_arrival_index(), n);
    }
    auto tagged = std::make_unique<TaggedStreams>(1);
    MultiQueryEngine engine(queries, reader.schema());
    engine.set_multi_sink(tagged.get());
    auto res = ReplayStream(&reader, ReplayOptions{}, &engine);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return std::move(tagged->streams[0]);
  };

  const MatchStream full = replay(/*seek=*/false);
  const MatchStream suffix = replay(/*seek=*/true);
  ASSERT_FALSE(full.empty());       // the running example has matches
  ASSERT_FALSE(suffix.empty());
  ASSERT_LT(suffix.size(), full.size());
  EXPECT_EQ(MatchStream(full.end() - suffix.size(), full.end()), suffix)
      << "seeked replay is not a suffix of the full replay";
}

// The Figure 2 worked example checked into tests/data/ must equal the
// in-tree fixtures record for record...
TEST(RunningExampleFiles, MatchesFixtures) {
  TelHeader header;
  auto ds = LoadTelFile(std::string(TCSM_TEST_DATA_DIR) +
                            "/running_example.tel",
                        &header);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const TemporalDataset expect = testlib::RunningExampleDataset();
  EXPECT_EQ(header.window, 10);
  EXPECT_EQ(ds.value().directed, expect.directed);
  EXPECT_EQ(ds.value().vertex_labels, expect.vertex_labels);
  ASSERT_EQ(ds.value().NumEdges(), expect.NumEdges());
  for (size_t i = 0; i < expect.edges.size(); ++i) {
    EXPECT_EQ(ds.value().edges[i].src, expect.edges[i].src);
    EXPECT_EQ(ds.value().edges[i].dst, expect.edges[i].dst);
    EXPECT_EQ(ds.value().edges[i].ts, expect.edges[i].ts);
  }

  auto q = LoadQueryFile(std::string(TCSM_TEST_DATA_DIR) +
                         "/running_example.tq");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const QueryGraph expect_q = testlib::RunningExampleQuery();
  EXPECT_EQ(q.value().window_hint(), 10);
  ASSERT_EQ(q.value().NumVertices(), expect_q.NumVertices());
  ASSERT_EQ(q.value().NumEdges(), expect_q.NumEdges());
  for (VertexId v = 0; v < expect_q.NumVertices(); ++v) {
    EXPECT_EQ(q.value().VertexLabel(v), expect_q.VertexLabel(v));
  }
  for (EdgeId e = 0; e < expect_q.NumEdges(); ++e) {
    EXPECT_EQ(q.value().Edge(e).u, expect_q.Edge(e).u);
    EXPECT_EQ(q.value().Edge(e).v, expect_q.Edge(e).v);
    EXPECT_EQ(q.value().Before(e), expect_q.Before(e));
    EXPECT_EQ(q.value().After(e), expect_q.After(e));
  }
}

// ...and replaying the file pair end to end must equal the in-memory run
// of the fixtures (this is the exact flow docs/FILE_FORMATS.md walks
// through).
TEST(RunningExampleFiles, FileReplayMatchesInMemory) {
  const TemporalDataset ds = testlib::RunningExampleDataset();
  const QueryGraph query = testlib::RunningExampleQuery();

  SingleQueryContext<TcmEngine> memory_run(query,
                                           testlib::RunningExampleSchema());
  CollectingSink memory_sink;
  memory_run.engine().set_sink(&memory_sink);
  StreamConfig config;
  config.window = 10;
  const StreamResult mem = RunStream(ds, config, &memory_run);
  ASSERT_TRUE(mem.completed);

  std::ifstream in(std::string(TCSM_TEST_DATA_DIR) +
                   "/running_example.tel");
  ASSERT_TRUE(in.is_open());
  StreamReader reader(in, "running_example.tel");
  ASSERT_TRUE(reader.Init().ok());
  auto file_q = LoadQueryFile(std::string(TCSM_TEST_DATA_DIR) +
                              "/running_example.tq");
  ASSERT_TRUE(file_q.ok());
  SingleQueryContext<TcmEngine> file_run(file_q.value(), reader.schema());
  CollectingSink file_sink;
  file_run.engine().set_sink(&file_sink);
  ReplayOptions opts;
  opts.window = file_q.value().window_hint();
  auto res = ReplayStream(&reader, opts, &file_run);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_TRUE(res.value().completed);

  EXPECT_EQ(file_sink.matches(), memory_sink.matches());
  EXPECT_EQ(res.value().occurred, mem.occurred);
  EXPECT_EQ(res.value().expired, mem.expired);
  EXPECT_EQ(res.value().events, mem.events);
}

}  // namespace
}  // namespace tcsm
