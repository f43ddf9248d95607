// `perfbench gen`: turns (workload, seed) into the files the measured
// process receives — a binary-v2 .tel stream and one .tq file per query —
// plus manifest.json with the counts run.py checks against. Same seed,
// same bytes. Workload shapes and the reasons behind them: NOTES.md.
#include <algorithm>
#include <atomic>
#include <exception>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "bench_util/experiment.h"
#include "core/shared_context.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/presets.h"
#include "datasets/synthetic.h"
#include "io/stream_writer.h"
#include "query/query_io.h"
#include "querygen/query_generator.h"

namespace perfbench {
namespace {

struct Workload {
  tcsm::SyntheticSpec spec;
  /// Live edges in the window (the paper's window unit); the replay
  /// window in timestamp units is this divided by spec.ts_coalesce.
  tcsm::Timestamp live_edges = 0;
  tcsm::QueryGenOptions query;
  size_t num_queries = 0;
  uint64_t query_seed = 0;
  /// When > 0, a candidate query is admitted only if its whole-stream
  /// occurred count stays at or below this (see AdmitQueries).
  uint64_t max_matches = 0;
};

/// bench_parallel_scaling's stream shape: few labels, parallel edges, a
/// window wide enough that most events reach per-engine work.
tcsm::SyntheticSpec FanoutStream(uint64_t seed) {
  tcsm::SyntheticSpec spec;
  spec.name = "fanout";
  spec.num_vertices = 400;
  spec.num_edges = 10000;
  spec.num_vertex_labels = 4;
  spec.num_edge_labels = 2;
  spec.avg_parallel_edges = 2.0;
  spec.seed = seed;
  return spec;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  // The streams are fixed datasets, as the paper's Table III datasets
  // are; the seed draws the query set, as the paper draws its random-walk
  // queries. NOTES.md ("Seeds") explains why the stream does not vary.
  w->query_seed = seed * 1000003 + 17;
  w->query.density = 0.5;
  if (name == "fanout" || name == "predicates") {
    // bench_parallel_scaling's default seed.
    w->spec = FanoutStream(7);
    w->live_edges = 1000;
    w->query.num_edges = 4;
    w->num_queries = 64;
    w->max_matches = 30000;
    if (name == "predicates") {
      // querygen's gap bounds (min >= 1 ones included) and absences are
      // kept as generated; admission only looks at the match count. 96
      // queries, not 16: how many queries hit the gap defect varies
      // binomially per seed, and with 16 match_ok_share's seed-to-seed
      // spread is ~0.4 of its median (NOTES.md, "Seeds"). A lower cap
      // than fanout's: with absence, every embedding is expanded and held
      // pending, so the cost of a query grows with its match count.
      w->num_queries = 96;
      w->max_matches = 10000;
      w->query.gap_probability = 0.5;
      w->query.num_absence = 1;
    }
  } else if (name == "paper") {
    // superuser's Table III signature at the preset's default scale, with
    // same-timestamp bursts for the micro-batcher.
    w->spec = tcsm::PresetSpec("superuser");  // the preset's own seed
    w->spec.ts_coalesce = 4;
    w->query.num_edges = 11;
    w->num_queries = 8;
    w->max_matches = 20000;
  } else if (name == "repro") {
    // The gap x pruning-technique-2 defect repro (NOTES.md): superuser
    // preset seed 1, 8 queries of 9 edges, window 1000, gaps at p=0.5,
    // query seed 2. --seed is ignored: the repro is one fixed input.
    w->spec = tcsm::PresetSpec("superuser");
    w->spec.seed = 1;
    w->live_edges = 1000;
    w->query.num_edges = 9;
    w->query.gap_probability = 0.5;
    w->num_queries = 8;
    w->query_seed = 2;
  } else {
    return false;
  }
  return true;
}

/// TcmEngine that reports overflow once its occurred count passes a cap,
/// which makes RunStream stop early on a query that would explode. Runs
/// with pruning technique 2 off: with gap bounds, technique 2 loses
/// embeddings (NOTES.md, "Known defect"), and the count must not depend
/// on that defect.
class CappedTcmEngine : public tcsm::TcmEngine {
 public:
  CappedTcmEngine(const tcsm::QueryGraph& query, const tcsm::TemporalGraph& g,
                  uint64_t cap)
      : BasicTcmEngine(query, g, Config()), cap_(cap) {}
  bool overflowed() const override { return counters().occurred > cap_; }

 private:
  static tcsm::TcmConfig Config() {
    tcsm::TcmConfig config;
    config.prune_uniform = false;
    return config;
  }
  uint64_t cap_;
};

/// Random-walk queries drawn exactly as GenerateQuerySet draws them (one
/// split sub-seed per candidate), keeping the first `w.num_queries`
/// candidates whose whole-stream occurred count — absence predicates
/// aside, so deferred emission cannot hide the work — is at most
/// `w.max_matches`. The count is semantic (every correct engine reports
/// the same one), so the admitted set does not move when the engine gets
/// faster. Without a cap this is GenerateQuerySet itself.
std::vector<tcsm::QueryGraph> AdmitQueries(const tcsm::TemporalDataset& ds,
                                           const Workload& w) {
  if (w.max_matches == 0) {
    return tcsm::GenerateQuerySet(ds, w.query, w.num_queries, w.query_seed);
  }
  std::vector<tcsm::QueryGraph> candidates;
  tcsm::Rng rng(w.query_seed);
  for (size_t i = 0; i < 4 * w.num_queries; ++i) {
    tcsm::Rng sub = rng.Split();
    tcsm::QueryGraph q;
    if (tcsm::GenerateQuery(ds, w.query, &sub, &q)) {
      candidates.push_back(std::move(q));
    }
  }
  // Vet the candidates on up to four threads; admission order is the
  // candidate order, so the result does not depend on scheduling.
  std::vector<char> admitted(candidates.size(), 0);
  std::atomic<size_t> next{0};
  const auto vet = [&]() {
    for (size_t i; (i = next.fetch_add(1)) < candidates.size();) {
      // A candidate that cannot be vetted is simply not admitted; no
      // exception may escape a worker thread.
      try {
      const auto pattern = tcsm::ParseQueryString(
          StripAbsence(tcsm::SerializeQuery(candidates[i])));
      tcsm::SingleQueryContext<CappedTcmEngine> ctx(
          pattern.value(), tcsm::SchemaOf(ds), w.max_matches);
      tcsm::StreamConfig config;
      config.window = w.query.window;
      admitted[i] = tcsm::RunStream(ds, config, &ctx).completed ? 1 : 0;
      } catch (const std::exception&) {
        admitted[i] = 0;
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < MaxThreads(); ++t) pool.emplace_back(vet);
  vet();
  for (std::thread& t : pool) t.join();
  std::vector<tcsm::QueryGraph> out;
  for (size_t i = 0; i < candidates.size() && out.size() < w.num_queries;
       ++i) {
    if (admitted[i]) out.push_back(std::move(candidates[i]));
  }
  return out;
}

}  // namespace

int CmdGen(const std::vector<std::string>& args) {
  const Flags flags(args);
  const std::string name = flags.Get("workload");
  const std::string dir = flags.Get("out");
  Workload w;
  if (dir.empty() || !flags.Has("seed") ||
      !MakeWorkload(name, static_cast<uint64_t>(flags.GetInt("seed", 0)),
                    &w)) {
    std::cerr << "usage: perfbench gen --workload fanout|paper|predicates|"
                 "repro --seed N --out DIR\n";
    return 2;
  }
  const tcsm::TemporalDataset ds = tcsm::GenerateSynthetic(w.spec);
  if (w.live_edges == 0) {
    // The paper's default 30k-unit window, rescaled to this preset.
    w.live_edges = tcsm::EffectiveWindow(ds, 30000);
  }
  const tcsm::Timestamp window = std::max<tcsm::Timestamp>(
      1, w.live_edges / static_cast<tcsm::Timestamp>(
                            std::max<size_t>(1, w.spec.ts_coalesce)));
  w.query.window = window;
  const std::vector<tcsm::QueryGraph> queries = AdmitQueries(ds, w);
  if (queries.empty()) {
    std::cerr << "perfbench gen: no query could be generated\n";
    return 1;
  }

  std::filesystem::create_directories(dir);
  tcsm::TelWriteOptions tel;
  tel.window = window;
  tel.binary = true;
  tcsm::Status s = tcsm::SaveTelFile(ds, tel, dir + "/stream.tel");
  size_t gaps = 0;
  size_t absences = 0;
  for (size_t i = 0; i < queries.size() && s.ok(); ++i) {
    char file[32];
    std::snprintf(file, sizeof(file), "/q%02zu.tq", i);
    s = tcsm::SaveQueryFile(queries[i], dir + file);
    gaps += queries[i].gaps().size();
    absences += queries[i].absences().size();
  }
  if (!s.ok()) {
    std::cerr << "perfbench gen: " << s.ToString() << "\n";
    return 1;
  }
  // Derived expiry: every arrival also expires, so a whole replay
  // delivers exactly twice the arrival count.
  std::ofstream manifest(dir + "/manifest.json");
  manifest << "{\"workload\":";
  JsonString(manifest, name);
  manifest << ",\"vertices\":" << ds.NumVertices()
           << ",\"arrivals\":" << ds.NumEdges()
           << ",\"events\":" << 2 * ds.NumEdges() << ",\"window\":" << window
           << ",\"live_edges\":" << w.live_edges
           << ",\"ts_coalesce\":" << std::max<size_t>(1, w.spec.ts_coalesce)
           << ",\"queries\":" << queries.size() << ",\"gaps\":" << gaps
           << ",\"absences\":" << absences << "}\n";
  return manifest.good() ? 0 : 1;
}

}  // namespace perfbench
