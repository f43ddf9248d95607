// perfbench — replay benchmark driver for the tcsm library. Three
// subcommands, orchestrated by perfbench/run.py:
//
//   gen     seed -> binary-v2 .tel stream + .tq query files (+ manifest)
//   check   reference check: TCM vs. a baseline engine, per query
//   replay  the measured process: whole-stream replays through
//           StreamReader -> ReplayStream -> SharedStreamContext
#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "query/query_io.h"

namespace perfbench {

Flags::Flags(const std::vector<std::string>& args) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) == 0 && i + 1 < args.size()) {
      kv_[a.substr(2)] = args[++i];
    } else {
      pos_.push_back(a);
    }
  }
}

std::string Flags::Get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  return Has(key) ? std::stoll(Get(key)) : def;
}

double Flags::GetDouble(const std::string& key, double def) const {
  return Has(key) ? std::stod(Get(key)) : def;
}

size_t LatencyHistogram::Index(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int e = 63 - std::countl_zero(v);  // >= kSubBits
  const int shift = e - kSubBits;
  const size_t sub = static_cast<size_t>(v >> shift) - kSub;
  return static_cast<size_t>(shift + 1) * kSub + sub;
}

double LatencyHistogram::Midpoint(size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const size_t shift = index / kSub - 1;
  const double lo = static_cast<double>((kSub + index % kSub) << shift);
  return lo + static_cast<double>(uint64_t{1} << shift) / 2.0;
}

void LatencyHistogram::Add(int64_t ns, uint64_t weight) {
  buckets_[Index(static_cast<uint64_t>(std::max<int64_t>(0, ns)))] += weight;
  count_ += weight;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0;
  // Rank of the q-quantile sample (1-based, nearest-rank definition).
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.999999));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return Midpoint(i);
  }
  return Midpoint(buckets_.size() - 1);
}

void DigestSink::OnMatch(const tcsm::Embedding& embedding,
                         tcsm::MatchKind kind, uint64_t multiplicity) {
  // splitmix64 chained over the edge ids (which determine the vertices)
  // and the vertex ids, seeded by the kind.
  const auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  const bool occurred = kind == tcsm::MatchKind::kOccurred;
  uint64_t h = mix(occurred ? 1 : 2);
  for (const tcsm::EdgeId e : embedding.edges) h = mix(h ^ mix(e));
  for (const tcsm::VertexId v : embedding.vertices) h = mix(h ^ mix(v + 7));
  digest_ += h * multiplicity;
  (occurred ? occurred_ : expired_) += multiplicity;
}

std::string StripAbsence(const std::string& tq_text) {
  std::istringstream in(tq_text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("n ", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<tcsm::QueryGraph> LoadQueries(const std::vector<std::string>& paths,
                                          bool strip_absence) {
  std::vector<tcsm::QueryGraph> queries;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    auto q = tcsm::ParseQueryString(strip_absence ? StripAbsence(text.str())
                                                  : text.str());
    if (!in || !q.ok()) {
      std::cerr << "perfbench: cannot load " << path << ": "
                << (q.ok() ? "read error" : q.status().ToString()) << "\n";
      std::exit(1);
    }
    queries.push_back(std::move(q.value()));
  }
  return queries;
}

size_t MaxThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

tcsm::Timestamp WindowHint(const std::vector<tcsm::QueryGraph>& queries) {
  tcsm::Timestamp hint = 0;
  for (const tcsm::QueryGraph& q : queries) {
    if (q.window_hint() > 0) hint = q.window_hint();
  }
  return hint;
}

void JsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") return perfbench::CmdGen(args);
  if (cmd == "check") return perfbench::CmdCheck(args);
  if (cmd == "replay") return perfbench::CmdReplay(args);
  std::cerr << "usage: perfbench gen|check|replay ...\n";
  return 2;
}
