// Shared pieces of the perfbench driver: the subcommands, a fixed-size
// latency histogram, an order-insensitive embedding digest, and the input
// loader every replay uses. Nothing here reaches into src/ internals: the
// benchmark drives the library only through its public headers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/query_graph.h"

namespace perfbench {

/// perfbench gen --workload W --seed N --out DIR
int CmdGen(const std::vector<std::string>& args);
/// perfbench check [--ref symbi|local] STREAM QUERY...
int CmdCheck(const std::vector<std::string>& args);
/// perfbench replay [--seconds S | --trace-out FILE] STREAM QUERY...
int CmdReplay(const std::vector<std::string>& args);

/// Minimal flag parser: `--key value` pairs plus positional arguments.
class Flags {
 public:
  explicit Flags(const std::vector<std::string>& args);
  bool Has(const std::string& key) const { return kv_.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& def = "") const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  const std::vector<std::string>& positional() const { return pos_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> pos_;
};

/// Worker threads for the untimed and parallel phases: at most nproc,
/// and never more than 4.
size_t MaxThreads();

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of nanosecond durations: 128 sub-buckets per
/// power of two, so a reported percentile is within 0.8% of the true
/// value. Fixed size (64 x 128 counters), so recording never allocates
/// and memory does not grow with the stream.
class LatencyHistogram {
 public:
  void Add(int64_t ns, uint64_t weight);
  uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1], in nanoseconds (bucket midpoint).
  double QuantileNs(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static size_t Index(uint64_t v);
  static double Midpoint(size_t index);

  std::array<uint64_t, 64 * kSub> buckets_{};
  uint64_t count_ = 0;
};

/// Order-insensitive digest of a match stream: the wrapping sum of a
/// 64-bit hash of every (embedding, kind), weighted by multiplicity. Asks
/// for each embedding, so engines that factor parallel edges expand them
/// and every engine is digested over the same objects.
class DigestSink : public tcsm::MatchSink {
 public:
  bool wants_each_embedding() const override { return true; }
  void OnMatch(const tcsm::Embedding& embedding, tcsm::MatchKind kind,
               uint64_t multiplicity) override;
  uint64_t digest() const { return digest_; }
  uint64_t occurred() const { return occurred_; }
  uint64_t expired() const { return expired_; }

 private:
  uint64_t digest_ = 0;
  uint64_t occurred_ = 0;
  uint64_t expired_ = 0;
};

/// `.tq` text without its `n` (absence) records.
std::string StripAbsence(const std::string& tq_text);

/// Loads `.tq` files, failing loudly (the inputs are generated, so a
/// parse error is a benchmark bug). `strip_absence` drops the `n`
/// records before parsing.
std::vector<tcsm::QueryGraph> LoadQueries(const std::vector<std::string>& paths,
                                          bool strip_absence = false);

/// The replay window `tcsm replay` would pick with no --window flag: the
/// queries' common `w` record (0 = take the stream header's).
tcsm::Timestamp WindowHint(const std::vector<tcsm::QueryGraph>& queries);

/// Writes `s` as a JSON string literal.
void JsonString(std::ostream& out, const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
