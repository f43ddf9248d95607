// `perfbench replay`: the measured process. It receives the generated
// .tel stream and .tq files only, and drives them exactly as `tcsm
// replay` does: StreamReader -> ReplayStream (ReplayOptions defaults, the
// queries' window) -> one serial SharedStreamContext with one TcmEngine
// and one CountingSink per query, on one driver thread.
//
// Untraced (default): whole-stream replays back to back for --seconds
// (at least --min-replays). Each replay reports its set-up time and its
// events/sec; every context entry is timed into a fixed-size histogram.
//
// Traced (--trace-out FILE): the per-layer budget. All spans are taken
// from this file, around calls into the library's public entry points
// and virtual seams (the context's batch entry points, its Notify*
// fan-out seam and EstimateMemoryBytes); nothing inside src/ is touched.
// See NOTES.md for how each layer number is derived.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench.h"
#include "core/shared_context.h"
#include "core/tcm_engine.h"
#include "exec/parallel_context.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "shard/sharded_context.h"
#include "shard/sharded_engine.h"

namespace perfbench {
namespace {

using tcsm::TemporalEdge;

// ---------------------------------------------------------------------
// Span recording (traced run only).

class Tracer {
 public:
  /// Keeps at most `cap` nested spans for the trace file; top-level spans
  /// are always kept. Aggregates never depend on the cap.
  explicit Tracer(size_t cap) : cap_(cap), origin_(NowNs()) {}

  bool WantDetail() const { return detail_kept_ < cap_; }

  void Add(const char* name, const char* cat, int64_t start, int64_t end,
           bool top_level, uint64_t events = 0) {
    if (!top_level) {
      if (detail_kept_ >= cap_) return;
      ++detail_kept_;
    }
    spans_.push_back(Span{name, cat, start - origin_, end - start, events});
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n"
           "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"driver\"}}";
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f",
                    s.name, s.cat, static_cast<double>(s.start) / 1e3,
                    static_cast<double>(s.dur) / 1e3);
      out << buf;
      if (s.events > 0) {
        out << ",\"args\":{\"events\":" << s.events << "}";
      }
      out << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    const char* cat;
    int64_t start;
    int64_t dur;
    uint64_t events;
  };
  size_t cap_;
  size_t detail_kept_ = 0;
  int64_t origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Contexts. Each overrides public entry points or virtual seams of the
// serial SharedStreamContext only to observe them; every override calls
// the base implementation unchanged.

/// The measured context: times each batch entry (all engines returned,
/// sinks drained) and charges the whole duration to every event of the
/// batch.
class TimedContext : public tcsm::SharedStreamContext {
 public:
  TimedContext(const tcsm::GraphSchema& schema, LatencyHistogram* hist)
      : SharedStreamContext(schema), hist_(hist) {}

  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t n) override {
    const int64_t t0 = NowNs();
    SharedStreamContext::OnEdgeArrivalBatch(edges, n);
    hist_->Add(NowNs() - t0, n);
    delivered_ += n;
  }
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t n) override {
    const int64_t t0 = NowNs();
    SharedStreamContext::OnEdgeExpiryBatch(edges, n);
    hist_->Add(NowNs() - t0, n);
    delivered_ += n;
  }
  uint64_t delivered() const { return delivered_; }

 private:
  LatencyHistogram* hist_;
  uint64_t delivered_ = 0;
};

/// Per-layer accumulators of the traced replay.
struct Layers {
  int64_t context_ns = 0;  // inside the batch entry points
  int64_t notify_ns = 0;   // inside the Notify* seam (engine fan-out)
  int64_t mem_ns = 0;      // inside EstimateMemoryBytes
  uint64_t mem_samples = 0;
  uint64_t batches = 0;
  uint64_t events = 0;
  uint64_t arrivals = 0;
  size_t hw_graph_bytes = 0;  // split at the window's high-water point
  size_t hw_total_bytes = 0;
};

/// The traced context: spans around the batch entry points, the Notify*
/// seam and EstimateMemoryBytes.
class TracedContext : public tcsm::SharedStreamContext {
 public:
  TracedContext(const tcsm::GraphSchema& schema, Tracer* tracer,
                Layers* layers, uint64_t stream_arrivals)
      : SharedStreamContext(schema),
        tracer_(tracer),
        layers_(layers),
        stream_arrivals_(stream_arrivals) {}

  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t n) override {
    Entry("context.arrival_batch", n, [&] {
      SharedStreamContext::OnEdgeArrivalBatch(edges, n);
    });
    layers_->arrivals += n;
  }
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t n) override {
    Entry("context.expiry_batch", n, [&] {
      SharedStreamContext::OnEdgeExpiryBatch(edges, n);
    });
  }

  size_t EstimateMemoryBytes() const override {
    const int64_t t0 = NowNs();
    const size_t bytes = SharedStreamContext::EstimateMemoryBytes();
    const int64_t t1 = NowNs();
    layers_->mem_ns += t1 - t0;
    ++layers_->mem_samples;
    tracer_->Add("context.estimate_memory", "driver", t0, t1, false);
    if (layers_->arrivals == stream_arrivals_ &&
        layers_->hw_total_bytes == 0) {
      // Every arrival is in and nothing has expired since: the window is
      // at its fullest. Split the footprint once, outside the span.
      layers_->hw_total_bytes = bytes;
      layers_->hw_graph_bytes = graph().EstimateMemoryBytes();
    }
    return bytes;
  }

 protected:
  void NotifyInserted(const TemporalEdge& ed) override {
    Seam("notify.inserted",
         [&] { SharedStreamContext::NotifyInserted(ed); });
  }
  void NotifyExpiring(const TemporalEdge& ed) override {
    Seam("notify.expiring",
         [&] { SharedStreamContext::NotifyExpiring(ed); });
  }
  void NotifyRemoved(const TemporalEdge& ed) override {
    Seam("notify.removed", [&] { SharedStreamContext::NotifyRemoved(ed); });
  }

 private:
  template <typename F>
  void Entry(const char* name, size_t n, const F& body) {
    detail_ = tracer_->WantDetail();
    const int64_t t0 = NowNs();
    body();
    const int64_t t1 = NowNs();
    layers_->context_ns += t1 - t0;
    ++layers_->batches;
    layers_->events += n;
    if (detail_) tracer_->Add(name, "graph", t0, t1, false, n);
  }
  template <typename F>
  void Seam(const char* name, const F& body) {
    const int64_t t0 = NowNs();
    body();
    const int64_t t1 = NowNs();
    layers_->notify_ns += t1 - t0;
    if (detail_) tracer_->Add(name, "engine", t0, t1, false);
  }

  Tracer* tracer_;
  Layers* layers_;
  uint64_t stream_arrivals_;
  bool detail_ = false;
};

/// Driver-only context: accepts every event and does nothing, so a replay
/// through it costs exactly the reader plus ReplayStream's own loop.
class NullContext : public tcsm::SharedStreamContext {
 public:
  using SharedStreamContext::SharedStreamContext;
  void OnEdgeArrivalBatch(const TemporalEdge*, size_t) override {}
  void OnEdgeExpiryBatch(const TemporalEdge*, size_t) override {}
  size_t EstimateMemoryBytes() const override { return 0; }
};

/// CountingSink that also counts its OnMatch calls (technique 1 folds
/// interchangeable parallel edges into one call with a multiplicity).
class CallCountingSink : public tcsm::CountingSink {
 public:
  void OnMatch(const tcsm::Embedding& embedding, tcsm::MatchKind kind,
               uint64_t multiplicity) override {
    ++calls_;
    CountingSink::OnMatch(embedding, kind, multiplicity);
  }
  uint64_t calls() const { return calls_; }

 private:
  uint64_t calls_ = 0;
};

// ---------------------------------------------------------------------
// One whole-stream replay.

struct Inputs {
  std::string stream;
  std::vector<std::string> queries;
};

struct ReplaySpec {
  enum class Kind { kTimed, kTraced, kNull, kParallel, kSharded };
  Kind kind = Kind::kTimed;
  size_t width = 1;  // threads (kParallel) or shards (kSharded)
  bool strip_absence = false;
  bool setup_only = false;  // stop after set-up: no event is delivered
  LatencyHistogram* hist = nullptr;  // kTimed
  Tracer* tracer = nullptr;          // kTraced
  Layers* layers = nullptr;          // kTraced
  uint64_t stream_arrivals = 0;      // kTraced
};

struct ReplayOutcome {
  double setup_s = 0;
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t delivered = 0;
  bool ok = false;
  std::vector<std::pair<uint64_t, uint64_t>> counts;  // per query
  tcsm::EngineCounters counters;
  uint64_t sink_calls = 0;
};

ReplayOutcome ReplayOnce(const Inputs& in, const ReplaySpec& spec) {
  using Kind = ReplaySpec::Kind;
  ReplayOutcome out;
  const int64_t t0 = NowNs();
  std::ifstream file(in.stream, std::ios::binary);
  tcsm::StreamReader reader(file, in.stream);
  if (!reader.Init().ok() || !reader.has_vertex_universe()) return out;
  const std::vector<tcsm::QueryGraph> queries =
      LoadQueries(in.queries, spec.strip_absence);
  const tcsm::GraphSchema schema = reader.schema();

  std::unique_ptr<tcsm::SharedStreamContext> context;
  TimedContext* timed = nullptr;
  tcsm::ShardedStreamContext* sharded = nullptr;
  switch (spec.kind) {
    case Kind::kTimed:
      context = std::make_unique<TimedContext>(schema, spec.hist);
      timed = static_cast<TimedContext*>(context.get());
      break;
    case Kind::kTraced:
      context = std::make_unique<TracedContext>(
          schema, spec.tracer, spec.layers, spec.stream_arrivals);
      break;
    case Kind::kNull:
      context = std::make_unique<NullContext>(schema);
      break;
    case Kind::kParallel:
      context =
          std::make_unique<tcsm::ParallelStreamContext>(schema, spec.width);
      break;
    case Kind::kSharded: {
      auto c = std::make_unique<tcsm::ShardedStreamContext>(schema, spec.width,
                                                            spec.width);
      sharded = c.get();
      context = std::move(c);
      break;
    }
  }
  std::vector<std::unique_ptr<tcsm::ContinuousEngine>> engines;
  std::vector<CallCountingSink> sinks(queries.size());
  if (spec.kind != Kind::kNull) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (sharded != nullptr) {
        engines.push_back(std::make_unique<tcsm::ShardedTcmEngine>(
            queries[i], sharded->view()));
        sharded->AttachToShard(i * spec.width / queries.size(),
                               engines.back().get());
      } else {
        engines.push_back(
            std::make_unique<tcsm::TcmEngine>(queries[i], context->graph()));
        context->Attach(engines.back().get());
      }
      engines.back()->set_sink(&sinks[i]);
    }
  }
  tcsm::ReplayOptions opts;
  opts.window = WindowHint(queries);
  const int64_t t1 = NowNs();
  out.setup_s = static_cast<double>(t1 - t0) / 1e9;
  if (spec.setup_only) return out;
  const auto res = tcsm::ReplayStream(&reader, opts, context.get());
  const int64_t t2 = NowNs();

  out.wall_s = static_cast<double>(t2 - t1) / 1e9;
  out.ok = res.ok() && res.value().completed;
  out.events = res.ok() ? res.value().events : 0;
  out.delivered = timed != nullptr ? timed->delivered() : out.events;
  out.counters = context->AggregateCounters();
  for (const CallCountingSink& s : sinks) {
    out.counts.emplace_back(s.occurred(), s.expired());
    out.sink_calls += s.calls();
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void PrintList(std::ostream& out, const std::vector<double>& v) {
  out << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out << (i == 0 ? "" : ",") << v[i];
  }
  out << "]";
}

void PrintCounts(std::ostream& out,
                 const std::vector<std::pair<uint64_t, uint64_t>>& counts) {
  out << "[";
  for (size_t i = 0; i < counts.size(); ++i) {
    out << (i == 0 ? "" : ",") << "[" << counts[i].first << ","
        << counts[i].second << "]";
  }
  out << "]";
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries the pre-exec peak of the parent
/// across exec, so a child of a large launcher would report the
/// launcher's footprint.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Untraced measurement: replays until `seconds` have passed (at least
/// three), then 20 set-up-only rounds so the set-up median rests on more
/// samples than there are replays.
int Measure(const Inputs& in, double seconds) {
  constexpr size_t kMinReplays = 3;
  constexpr size_t kExtraSetups = 20;
  LatencyHistogram hist;
  ReplaySpec spec;
  spec.hist = &hist;
  std::vector<double> eps;
  std::vector<double> setup;
  std::vector<double> delivered;
  std::vector<std::pair<uint64_t, uint64_t>> counts;
  bool ok = true;
  bool consistent = true;
  const int64_t start = NowNs();
  while (eps.size() < kMinReplays ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    const ReplayOutcome r = ReplayOnce(in, spec);
    ok = ok && r.ok;
    if (eps.empty()) counts = r.counts;
    consistent = consistent && r.counts == counts;
    eps.push_back(r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s
                               : 0);
    setup.push_back(r.setup_s);
    delivered.push_back(static_cast<double>(r.delivered));
    if (!r.ok) break;
  }
  spec.setup_only = true;
  for (size_t i = 0; i < kExtraSetups; ++i) {
    setup.push_back(ReplayOnce(in, spec).setup_s);
  }
  std::cout.precision(10);
  std::cout << "{\"mode\":\"measure\",\"ok\":" << (ok ? "true" : "false")
            << ",\"consistent\":" << (consistent ? "true" : "false")
            << ",\"replays\":" << eps.size() << ",\"events_per_sec\":";
  PrintList(std::cout, eps);
  std::cout << ",\"setup_s\":";
  PrintList(std::cout, setup);
  std::cout << ",\"delivered\":";
  PrintList(std::cout, delivered);
  std::cout << ",\"lat_samples\":" << hist.count()
            << ",\"lat_p50_us\":" << hist.QuantileNs(0.50) / 1e3
            << ",\"lat_p99_us\":" << hist.QuantileNs(0.99) / 1e3
            << ",\"lat_p999_us\":" << hist.QuantileNs(0.999) / 1e3
            << ",\"peak_rss_mb\":" << PeakRssMb() << ",\"counts\":";
  PrintCounts(std::cout, counts);
  std::cout << "}\n";
  return 0;  // a failed check is reported through "ok", not the exit code
}

/// Parse-only pass: the StreamReader alone, every record pulled.
double ParsePass(const std::string& stream, uint64_t* records,
                 uint64_t* arrivals) {
  const int64_t t0 = NowNs();
  std::ifstream file(stream, std::ios::binary);
  tcsm::StreamReader reader(file, stream);
  *records = 0;
  *arrivals = 0;
  if (!reader.Init().ok()) return -1;
  tcsm::StreamRecord rec;
  for (bool done = false;;) {
    if (!reader.Next(&rec, &done).ok()) return -1;
    if (done) break;
    ++*records;
    if (rec.kind == tcsm::StreamRecord::Kind::kArrival) ++*arrivals;
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Traced run: the per-layer budget (see NOTES.md, "Per-layer metrics").
int Trace(const Inputs& in, const std::string& trace_out) {
  Tracer tracer(50000);
  std::cout.precision(10);
  bool ok = true;
  std::vector<std::pair<std::string, double>> m;  // metric -> value

  // io: parse-only passes, median of three.
  uint64_t records = 0;
  uint64_t arrivals = 0;
  std::vector<double> parse;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = NowNs();
    parse.push_back(ParsePass(in.stream, &records, &arrivals));
    tracer.Add("io.parse_pass", "io", t0, NowNs(), true, records);
  }
  ok = ok && parse.front() >= 0;
  const double parse_s = Median(parse);

  // driver: reader + ReplayStream's own loop, through a null context.
  std::vector<double> null_wall;
  for (int i = 0; i < 3; ++i) {
    ReplaySpec spec;
    spec.kind = ReplaySpec::Kind::kNull;
    const int64_t t0 = NowNs();
    const ReplayOutcome r = ReplayOnce(in, spec);
    tracer.Add("driver.null_replay", "driver", t0, NowNs(), true, r.events);
    null_wall.push_back(r.wall_s);
  }
  const double driver_self_s = std::max(0.0, Median(null_wall) - parse_s);

  // The traced replay itself.
  Layers layers;
  ReplaySpec traced;
  traced.kind = ReplaySpec::Kind::kTraced;
  traced.tracer = &tracer;
  traced.layers = &layers;
  traced.stream_arrivals = arrivals;
  int64_t t0 = NowNs();
  const ReplayOutcome tr = ReplayOnce(in, traced);
  tracer.Add("replay", "driver", t0 + static_cast<int64_t>(tr.setup_s * 1e9),
             NowNs(), true, tr.events);
  ok = ok && tr.ok;

  // Untraced replays: the trace overhead, p999, and the serial baseline
  // of the absence and parallel comparisons.
  LatencyHistogram hist;
  std::vector<double> plain_wall;
  ReplayOutcome plain;
  for (int i = 0; i < 2; ++i) {
    ReplaySpec spec;
    spec.hist = &hist;
    t0 = NowNs();
    plain = ReplayOnce(in, spec);
    tracer.Add("replay.untraced", "driver", t0, NowNs(), true, plain.events);
    plain_wall.push_back(plain.wall_s);
    ok = ok && plain.ok && plain.counts == tr.counts;
  }
  const double serial_s = Median(plain_wall);

  // absence: the same replay with the `n` records stripped.
  bool any_absence = false;
  for (const tcsm::QueryGraph& q : LoadQueries(in.queries)) {
    any_absence = any_absence || !q.absences().empty();
  }
  double absence_s = 0;
  if (any_absence) {
    std::vector<double> stripped;
    for (int i = 0; i < 2; ++i) {
      LatencyHistogram scratch;
      ReplaySpec spec;
      spec.hist = &scratch;
      spec.strip_absence = true;
      t0 = NowNs();
      const ReplayOutcome r = ReplayOnce(in, spec);
      tracer.Add("replay.absence_stripped", "absence", t0, NowNs(), true,
                 r.events);
      stripped.push_back(r.wall_s);
      ok = ok && r.ok;
    }
    absence_s = serial_s - Median(stripped);
  }

  // exec / shard: the same replay at 2 and 4 lanes; results must match.
  for (const auto kind :
       {ReplaySpec::Kind::kParallel, ReplaySpec::Kind::kSharded}) {
    for (const size_t width : {size_t{2}, size_t{4}}) {
      const bool exec = kind == ReplaySpec::Kind::kParallel;
      const std::string name = std::string(exec ? "exec.speedup_t" :
                                                  "shard.speedup_s") +
                               std::to_string(width);
      if (width > MaxThreads()) {
        m.emplace_back(name, 0.0);  // wider than nproc: not measured
        continue;
      }
      ReplaySpec spec;
      spec.kind = kind;
      spec.width = width;
      t0 = NowNs();
      const ReplayOutcome r = ReplayOnce(in, spec);
      tracer.Add(exec ? "exec.replay" : "shard.replay", exec ? "exec" : "shard",
                 t0, NowNs(), true, r.events);
      ok = ok && r.ok && r.counts == tr.counts;
      m.emplace_back(name, r.wall_s > 0 ? serial_s / r.wall_s : 0.0);
    }
  }
  tracer.Write(trace_out);

  const double sec = 1e-9;
  const double replay_s = tr.wall_s;
  const double mutate_s =
      static_cast<double>(layers.context_ns - layers.notify_ns) * sec;
  const double notify_s = static_cast<double>(layers.notify_ns) * sec;
  const double mem_s = static_cast<double>(layers.mem_ns) * sec;
  const uint64_t matches = tr.counters.occurred + tr.counters.expired;
  const double traced_eps =
      replay_s > 0 ? static_cast<double>(tr.events) / replay_s : 0;
  const double plain_eps =
      serial_s > 0 ? static_cast<double>(plain.events) / serial_s : 0;
  m.emplace_back("io.parse_s", parse_s);
  m.emplace_back("io.ns_per_record",
                 records > 0 ? parse_s * 1e9 / static_cast<double>(records)
                             : 0);
  m.emplace_back("driver.self_s", driver_self_s);
  m.emplace_back("driver.mem_sample_s", mem_s);
  m.emplace_back("driver.mem_samples", static_cast<double>(layers.mem_samples));
  m.emplace_back("driver.events_per_batch",
                 layers.batches > 0 ? static_cast<double>(layers.events) /
                                          static_cast<double>(layers.batches)
                                    : 0);
  m.emplace_back("graph.mutate_s", mutate_s);
  m.emplace_back("engine.notify_s", notify_s);
  m.emplace_back("engine.update_s",
                 static_cast<double>(tr.counters.update_ns) * sec);
  m.emplace_back("engine.search_s",
                 static_cast<double>(tr.counters.search_ns) * sec);
  m.emplace_back("engine.search_nodes",
                 static_cast<double>(tr.counters.search_nodes));
  m.emplace_back("engine.adj_match_ratio",
                 tr.counters.adj_entries_scanned > 0
                     ? static_cast<double>(tr.counters.adj_entries_matched) /
                           static_cast<double>(tr.counters.adj_entries_scanned)
                     : 0);
  m.emplace_back("absence.overhead_s", absence_s);
  m.emplace_back("sink.calls_per_match",
                 matches > 0 ? static_cast<double>(tr.sink_calls) /
                                   static_cast<double>(matches)
                             : 0);
  m.emplace_back("mem.graph_mb",
                 static_cast<double>(layers.hw_graph_bytes) / (1 << 20));
  m.emplace_back("mem.engines_mb",
                 static_cast<double>(layers.hw_total_bytes -
                                     layers.hw_graph_bytes) /
                     (1 << 20));
  m.emplace_back("replay_s", replay_s);
  m.emplace_back("unattributed_s",
                 replay_s - (parse_s + driver_self_s + mem_s + mutate_s +
                             notify_s));
  m.emplace_back("lat_p999_us", hist.QuantileNs(0.999) / 1e3);
  m.emplace_back("lat.samples", static_cast<double>(hist.count()));
  m.emplace_back("trace.overhead_share",
                 plain_eps > 0 ? (plain_eps - traced_eps) / plain_eps : 0);

  std::cout << "{\"mode\":\"trace\",\"ok\":" << (ok ? "true" : "false")
            << ",\"events\":" << tr.events << ",\"counts\":";
  PrintCounts(std::cout, tr.counts);
  std::cout << ",\"metrics\":{";
  for (size_t i = 0; i < m.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << "\"" << m[i].first
              << "\":" << m[i].second;
  }
  std::cout << "}}\n";
  return 0;  // a failed check is reported through "ok", not the exit code
}

}  // namespace

int CmdReplay(const std::vector<std::string>& args) {
  const Flags flags(args);
  if (flags.positional().size() < 2) {
    std::cerr << "usage: perfbench replay [--seconds S | --trace-out FILE] "
                 "STREAM QUERY...\n";
    return 2;
  }
  Inputs in;
  in.stream = flags.positional()[0];
  in.queries.assign(flags.positional().begin() + 1, flags.positional().end());
  if (flags.Has("trace-out")) return Trace(in, flags.Get("trace-out"));
  return Measure(in, flags.GetDouble("seconds", 10));
}

}  // namespace perfbench
