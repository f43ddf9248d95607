// `perfbench check`: the reference side of match_ok_share. For every
// query it replays the stream twice through ReplayStream — once with a
// TcmEngine and once with a baseline engine from src/baselines — each
// behind a DigestSink, and prints both (occurred, expired, digest)
// triples as one JSON line. Queries are independent, so the replays are
// spread over up to four workers; nothing here is timed.
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "bench.h"
#include "core/shared_context.h"
#include "core/tcm_engine.h"
#include "io/replay.h"
#include "io/stream_reader.h"

namespace perfbench {
namespace {

struct Outcome {
  uint64_t occurred = 0;
  uint64_t expired = 0;
  uint64_t digest = 0;
  bool completed = false;
};

Outcome ReplayOne(const std::string& stream, const tcsm::QueryGraph& query,
                  tcsm::Timestamp window, const std::string& engine_kind,
                  const tcsm::TcmConfig& tcm_config) {
  Outcome out;
  std::ifstream file(stream, std::ios::binary);
  tcsm::StreamReader reader(file, stream);
  if (!reader.Init().ok()) return out;
  tcsm::SharedStreamContext context(reader.schema());
  std::unique_ptr<tcsm::ContinuousEngine> engine;
  if (engine_kind == "tcm") {
    engine = std::make_unique<tcsm::TcmEngine>(query, context.graph(),
                                               tcm_config);
  } else if (engine_kind == "symbi") {
    engine = std::make_unique<tcsm::PostFilterEngine>(query, context.graph());
  } else {
    engine = std::make_unique<tcsm::LocalEnumEngine>(query, context.graph());
  }
  DigestSink sink;
  engine->set_sink(&sink);
  context.Attach(engine.get());
  tcsm::ReplayOptions opts;
  opts.window = window;
  const auto res = tcsm::ReplayStream(&reader, opts, &context);
  out.completed = res.ok() && res.value().completed;
  out.occurred = sink.occurred();
  out.expired = sink.expired();
  out.digest = sink.digest();
  return out;
}

void PrintOutcome(std::ostream& out, const Outcome& o) {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(o.digest));
  out << "{\"occurred\":" << o.occurred << ",\"expired\":" << o.expired
      << ",\"digest\":\"" << digest
      << "\",\"completed\":" << (o.completed ? "true" : "false") << "}";
}

}  // namespace

int CmdCheck(const std::vector<std::string>& args) {
  const Flags flags(args);
  if (flags.positional().size() < 2) {
    std::cerr << "usage: perfbench check [--ref symbi|local] "
                 "[--prune-uniform 0|1] [--prune-gap-bounds 0|1] "
                 "STREAM QUERY...\n";
    return 2;
  }
  const std::string stream = flags.positional()[0];
  const std::vector<std::string> paths(flags.positional().begin() + 1,
                                       flags.positional().end());
  const std::vector<tcsm::QueryGraph> queries = LoadQueries(paths);
  const tcsm::Timestamp window = WindowHint(queries);
  const std::string ref = flags.Get("ref", "symbi");
  tcsm::TcmConfig tcm_config;
  tcm_config.prune_uniform = flags.GetInt("prune-uniform", 1) != 0;
  tcm_config.prune_gap_bounds = flags.GetInt("prune-gap-bounds", 1) != 0;

  // Job 2i replays query i under TCM, job 2i+1 under the reference.
  const size_t jobs = 2 * queries.size();
  std::vector<Outcome> outcomes(jobs);
  std::atomic<size_t> next{0};
  // A failed job (e.g. out of memory) leaves completed=false behind,
  // which run.py reports; no exception may escape a worker thread.
  const auto worker = [&]() {
    for (size_t j; (j = next.fetch_add(1)) < jobs;) {
      try {
        outcomes[j] = ReplayOne(stream, queries[j / 2], window,
                                j % 2 == 0 ? "tcm" : ref, tcm_config);
      } catch (const std::exception& e) {
        std::cerr << "perfbench check: job " << j << ": " << e.what() << "\n";
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::min(MaxThreads(), jobs); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) t.join();

  std::cout << "{\"ref_engine\":";
  JsonString(std::cout, ref);
  std::cout << ",\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << "{\"tcm\":";
    PrintOutcome(std::cout, outcomes[2 * i]);
    std::cout << ",\"ref\":";
    PrintOutcome(std::cout, outcomes[2 * i + 1]);
    std::cout << "}";
  }
  std::cout << "]}\n";
  return 0;
}

}  // namespace perfbench
