#include "cli/commands.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "baselines/timing_engine.h"
#include "bench_util/table_printer.h"
#include "common/numbers.h"
#include "core/automorphism.h"
#include "core/snapshot.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "exec/parallel_context.h"
#include "datasets/presets.h"
#include "datasets/synthetic.h"
#include "graph/graph_io.h"
#include "io/flight_recorder.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "io/stream_writer.h"
#include "obs/observability.h"
#include "query/query_io.h"
#include "querygen/query_generator.h"
#include "shard/sharded_context.h"
#include "shard/sharded_engine.h"

namespace tcsm::cli {
namespace {

/// A malformed flag value; Main turns it into a usage error (exit 2).
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Tiny flag parser: positional arguments plus --key=value / --switch.
/// Each subcommand names the flags it accepts; the first other flag is
/// kept as unknown(), and BadUsage refuses to run the command with it.
class FlagSet {
 public:
  FlagSet(const Args& args, std::initializer_list<const char*> accepted) {
    for (const std::string& a : args) {
      if (a.rfind("--", 0) == 0) {
        std::string name = a.substr(2);
        std::string value;
        const size_t eq = name.find('=');
        if (eq != std::string::npos) {
          value = name.substr(eq + 1);
          name.resize(eq);
        }
        if (unknown_.empty() &&
            std::none_of(accepted.begin(), accepted.end(),
                         [&](const char* f) { return name == f; })) {
          unknown_ = name;
        }
        flags_[name] = std::move(value);
      } else {
        positional_.push_back(a);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }
  /// The first flag the subcommand does not accept; empty when none.
  const std::string& unknown() const { return unknown_; }
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& dflt = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? dflt : it->second;
  }
  /// Numeric getters: the whole value must parse, else FlagError, which
  /// Main reports as "error: --<name> expects ..." with exit 2.
  double GetDouble(const std::string& name, double dflt) const {
    return GetNumber(name, dflt, "a number");
  }
  int64_t GetInt(const std::string& name, int64_t dflt) const {
    return GetNumber(name, dflt, "an integer");
  }

 private:
  template <typename T>
  T GetNumber(const std::string& name, T dflt, const char* what) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return dflt;
    T value = dflt;
    if (!ParseNumber(it->second, &value)) {
      throw FlagError("--" + name + " expects " + what + ", got '" +
                      it->second + "'");
    }
    return value;
  }

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  std::string unknown_;
};

/// The argument-shape check every subcommand runs before any work: with
/// an unknown flag or a wrong positional count it prints the usage text
/// (after naming the flag) and returns true, and the command exits 2. The
/// observability flags get a pointed message on the subcommands that
/// drive no stream.
bool BadUsage(const FlagSet& flags, bool positional_ok, const char* cmd,
              const std::string& usage, std::ostream& out) {
  const std::string& bad = flags.unknown();
  if (bad.empty() && positional_ok) return false;
  if (bad == "metrics" || bad == "stats-every" || bad == "trace-out") {
    out << "error: --" << bad
        << " only applies to streaming subcommands (run, replay), not '"
        << cmd << "'\n";
  } else if (!bad.empty()) {
    out << "error: unknown flag --" << bad << "\n";
  }
  out << usage;
  return true;
}

/// `usage` followed by the preset names (gen, gen-data).
std::string WithPresets(const char* usage) {
  std::string text = std::string(usage) + "   presets: ";
  for (const auto& p : PresetNames()) text += p + " ";
  return text + "\n";
}

/// Loads either dataset format (`.tel` sniffed by header, else legacy
/// edge list); the `.tel` header, when present, is returned for window
/// defaulting.
std::optional<TemporalDataset> LoadDataset(const FlagSet& flags,
                                           const std::string& path,
                                           std::ostream& out,
                                           TelHeader* header = nullptr) {
  auto ds = LoadAnyDatasetFile(path, flags.Has("directed"), header);
  if (!ds.ok()) {
    out << "error: " << ds.status().ToString() << "\n";
    return std::nullopt;
  }
  const std::string labels = flags.GetString("labels");
  if (!labels.empty()) {
    const Status s = LoadVertexLabelFile(labels, &ds.value());
    if (!s.ok()) {
      out << "error: " << s.ToString() << "\n";
      return std::nullopt;
    }
  }
  return std::move(ds).value();
}

std::optional<QueryGraph> LoadQuery(const std::string& path,
                                    std::ostream& out) {
  auto q = LoadQueryFile(path);
  if (!q.ok()) {
    out << "error: " << q.status().ToString() << "\n";
    return std::nullopt;
  }
  return std::move(q).value();
}

/// Window precedence shared by run/replay: explicit flag, then the query
/// file's `w` record, then the `.tel` header's window (0 = unresolved).
Timestamp ResolveWindow(const FlagSet& flags, const QueryGraph& query,
                        const TelHeader& header) {
  const Timestamp flag = flags.GetInt("window", 0);
  if (flag > 0) return flag;
  if (query.window_hint() > 0) return query.window_hint();
  return header.window;
}

/// Engine factory shared by run/replay; prints an error and returns null
/// for unknown kinds.
std::unique_ptr<ContinuousEngine> MakeCliEngine(const std::string& kind,
                                                const QueryGraph& query,
                                                const TemporalGraph& graph,
                                                std::ostream& out) {
  if (kind == "tcm") return std::make_unique<TcmEngine>(query, graph);
  if (kind == "timing") return std::make_unique<TimingEngine>(query, graph);
  if (kind == "symbi") {
    return std::make_unique<PostFilterEngine>(query, graph);
  }
  if (kind == "local") {
    return std::make_unique<LocalEnumEngine>(query, graph);
  }
  out << "error: unknown engine '" << kind << "'\n";
  return nullptr;
}

/// Upper bound on --threads and --shards: each thread is an OS thread and
/// each shard a full-vertex-set graph, so an unbounded value would spawn
/// or allocate without limit before anything could fail.
constexpr int64_t kMaxParallelism = 256;

/// Parses --shards (clamped to >= 1, capped at kMaxParallelism) and
/// enforces that sharded execution is only requested with the TCM engine
/// — the only engine instantiated over the sharded graph view. Returns 0
/// after printing an error.
size_t ResolveShards(const FlagSet& flags, const std::string& kind,
                     std::ostream& out) {
  const int64_t requested = flags.GetInt("shards", 1);
  if (requested > kMaxParallelism) {
    out << "error: --shards=" << requested << " exceeds the maximum of "
        << kMaxParallelism << "\n";
    return 0;
  }
  const size_t shards = static_cast<size_t>(std::max<int64_t>(1, requested));
  if (shards > 1 && kind != "tcm") {
    out << "error: --shards=" << shards
        << " requires --engine=tcm (only the TCM engine reads through "
           "the sharded graph view)\n";
    return 0;
  }
  return shards;
}

/// --threads with a sharded-aware default: a pool as wide as the shard
/// count when sharding is requested, the serial 1 otherwise (either way
/// the pool fans out engines, not shards). Capped at kMaxParallelism;
/// returns 0 after printing an error.
size_t ResolveThreads(const FlagSet& flags, size_t shards,
                      std::ostream& out) {
  const int64_t requested =
      flags.GetInt("threads", static_cast<int64_t>(shards));
  if (requested > kMaxParallelism) {
    out << "error: --threads=" << requested << " exceeds the maximum of "
        << kMaxParallelism << "\n";
    return 0;
  }
  return static_cast<size_t>(std::max<int64_t>(1, requested));
}

/// Builds the synthetic dataset named by `kind` ("random" or a preset);
/// prints an error and returns nullopt for unknown presets.
std::optional<TemporalDataset> BuildSynthetic(const FlagSet& flags,
                                              const std::string& kind,
                                              std::ostream& out) {
  if (kind == "random") {
    SyntheticSpec spec;
    spec.num_vertices = static_cast<size_t>(flags.GetInt("vertices", 1000));
    spec.num_edges = static_cast<size_t>(flags.GetInt("edges", 10000));
    spec.num_vertex_labels =
        static_cast<size_t>(flags.GetInt("vlabels", 1));
    spec.num_edge_labels = static_cast<size_t>(flags.GetInt("elabels", 1));
    spec.avg_parallel_edges = flags.GetDouble("parallel", 1.5);
    // Coalesced timestamps produce runs of same-instant events, the
    // shape that engages the micro-batched delivery paths downstream.
    const int64_t coalesce = flags.GetInt("coalesce", 1);
    if (coalesce < 1) {
      out << "error: --coalesce must be >= 1\n";
      return std::nullopt;
    }
    spec.ts_coalesce = static_cast<size_t>(coalesce);
    spec.directed = flags.Has("directed");
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    return GenerateSynthetic(spec);
  }
  bool known = false;
  for (const auto& p : PresetNames()) known = known || p == kind;
  if (!known) {
    out << "error: unknown preset '" << kind << "'\n";
    return std::nullopt;
  }
  SyntheticSpec spec = PresetSpec(kind, flags.GetDouble("scale", 1.0));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", spec.seed));
  return GenerateSynthetic(spec);
}

void PrintStats(const TemporalDataset& ds, std::ostream& out) {
  const DatasetStats s = ds.ComputeStats();
  TablePrinter table({"|V|", "|E|", "|Sv|", "|Se|", "davg", "mavg",
                      "span", "window-unit"});
  table.AddRow({std::to_string(s.num_vertices), std::to_string(s.num_edges),
                std::to_string(s.num_vertex_labels),
                std::to_string(s.num_edge_labels),
                FormatDouble(s.avg_degree, 2),
                FormatDouble(s.avg_parallel_edges, 2),
                std::to_string(s.max_ts - s.min_ts),
                FormatDouble(s.window_unit, 3)});
  table.Print(out);
}

class StreamPrintSink : public MatchSink {
 public:
  explicit StreamPrintSink(std::ostream& out, std::string prefix = "")
      : out_(out), prefix_(std::move(prefix)) {}
  void OnMatch(const Embedding& m, MatchKind kind, uint64_t) override {
    out_ << prefix_ << (kind == MatchKind::kOccurred ? "+" : "-");
    for (size_t u = 0; u < m.vertices.size(); ++u) {
      out_ << " u" << u << ":" << m.vertices[u];
    }
    out_ << " |";
    for (size_t e = 0; e < m.edges.size(); ++e) {
      out_ << " e" << e << ":" << m.edges[e];
    }
    out_ << "\n";
  }

 private:
  std::ostream& out_;
  std::string prefix_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Engine phase time (EngineCounters::update_ns / search_ns) as the
/// milliseconds the result lines and --json print.
std::string NsToMs(uint64_t ns) {
  return FormatDouble(static_cast<double>(ns) / 1e6, 3);
}

void PrintStreamResult(const std::string& engine_name,
                       const StreamResult& res, std::ostream& out) {
  out << "engine=" << engine_name << " threads=" << res.num_threads
      << " shards=" << res.num_shards << " events=" << res.events
      << " occurred=" << res.occurred << " expired=" << res.expired
      << " elapsed_ms=" << FormatDouble(res.elapsed_ms, 2)
      << " peak_bytes=" << res.peak_memory_bytes
      << " peak_at=" << res.peak_memory_event_index
      << " adj_scanned=" << res.adj_entries_scanned
      << " adj_matched=" << res.adj_entries_matched
      << " update_ms=" << NsToMs(res.update_ns)
      << " search_ms=" << NsToMs(res.search_ns)
      << (res.completed ? "" : " (INCOMPLETE: limit hit)") << "\n";
}

/// Observability surface shared by run/replay: --metrics[=on|off],
/// --stats-every=N, --trace-out=FILE (DESIGN.md §11).
struct ObsCliOptions {
  std::unique_ptr<Observability> obs;  // null = metrics off
  size_t stats_every = 0;
  std::string trace_path;
};

/// Parses the observability flags. --stats-every/--trace-out imply
/// metrics on; combining either with an explicit --metrics=off is a
/// contradiction. Returns false after printing an error.
bool ResolveObsFlags(const FlagSet& flags, std::ostream& out,
                     ObsCliOptions* o) {
  bool metrics_on = false;
  bool metrics_off = false;
  if (flags.Has("metrics")) {
    const std::string v = flags.GetString("metrics");
    if (v.empty() || v == "on") {
      metrics_on = true;
    } else if (v == "off") {
      metrics_off = true;
    } else {
      out << "error: bad --metrics (expected 'on' or 'off')\n";
      return false;
    }
  }
  const int64_t every = flags.GetInt("stats-every", 0);
  if (every < 0) {
    out << "error: --stats-every must be >= 0\n";
    return false;
  }
  o->stats_every = static_cast<size_t>(every);
  o->trace_path = flags.GetString("trace-out");
  if (metrics_off && (o->stats_every > 0 || !o->trace_path.empty())) {
    out << "error: --metrics=off contradicts --stats-every/--trace-out\n";
    return false;
  }
  if (metrics_on || o->stats_every > 0 || !o->trace_path.empty()) {
    o->obs = std::make_unique<Observability>();
    if (!o->trace_path.empty()) o->obs->EnableTrace();
  }
  return true;
}

/// End-of-run observability output: writes the trace file (validated
/// offline by tools/check_trace.py) and, in text mode, the per-stage
/// latency table. Returns non-zero on trace write failure.
int FinishObs(const ObsCliOptions& o, bool json, std::ostream& out) {
  if (o.obs == nullptr) return 0;
  if (!o.trace_path.empty()) {
    std::ofstream tf(o.trace_path);
    if (!tf) {
      out << "error: cannot open " << o.trace_path << "\n";
      return 1;
    }
    o.obs->trace()->WriteJson(tf);
    tf.flush();
    if (!tf) {
      out << "error: failed writing " << o.trace_path << "\n";
      return 1;
    }
    if (!json) {
      out << "wrote trace: " << o.obs->trace()->NumSpans() << " spans to "
          << o.trace_path << "\n";
    }
  }
  if (!json) {
    const std::vector<StageSummaryRow> rows =
        SummarizeStages(o.obs->Snapshot());
    if (!rows.empty()) {
      TablePrinter table({"stage", "count", "p50_us", "p99_us", "total_ms"});
      for (const StageSummaryRow& r : rows) {
        table.AddRow({r.stage, std::to_string(r.count),
                      FormatDouble(r.p50_us, 2), FormatDouble(r.p99_us, 2),
                      FormatDouble(r.total_ms, 2)});
      }
      table.Print(out);
    }
  }
  return 0;
}

/// Parses the `.tel` framing flags shared by gen and convert:
/// --format=text|binary (default = `default_binary`), --varint[=on|off]
/// (binary only), --block-records=N (binary only). Returns false after
/// printing an error.
bool ResolveTelFormatFlags(const FlagSet& flags, bool default_binary,
                           TelWriteOptions* opts, std::ostream& out) {
  const std::string format = flags.GetString("format");
  if (format.empty() && !flags.Has("format")) {
    opts->binary = default_binary;
  } else if (format == "binary") {
    opts->binary = true;
  } else if (format == "text") {
    opts->binary = false;
  } else {
    out << "error: bad --format (expected 'text' or 'binary')\n";
    return false;
  }
  if (flags.Has("varint")) {
    const std::string v = flags.GetString("varint");
    if (v.empty() || v == "on") {
      opts->varint_timestamps = true;
    } else if (v == "off") {
      opts->varint_timestamps = false;
    } else {
      out << "error: bad --varint (expected 'on' or 'off')\n";
      return false;
    }
    if (!opts->binary) {
      out << "error: --varint only applies to --format=binary\n";
      return false;
    }
  }
  if (flags.Has("block-records")) {
    const int64_t n = flags.GetInt("block-records", 0);
    if (n <= 0) {
      out << "error: --block-records must be > 0\n";
      return false;
    }
    if (!opts->binary) {
      out << "error: --block-records only applies to --format=binary\n";
      return false;
    }
    opts->block_records = static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int CmdStats(const Args& args, std::ostream& out) {
  const FlagSet flags(args, {"directed", "labels"});
  if (BadUsage(flags, flags.positional().size() == 1, "stats",
               "usage: tcsm stats <dataset> [--directed] [--labels=file]\n",
               out)) {
    return 2;
  }
  const auto ds = LoadDataset(flags, flags.positional()[0], out);
  if (!ds) return 1;
  PrintStats(*ds, out);
  return 0;
}

int CmdGen(const Args& args, std::ostream& out) {
  const FlagSet flags(
      args, {"scale", "seed", "window", "expiry", "format", "varint",
             "block-records", "vertices", "edges", "vlabels", "elabels",
             "parallel", "coalesce", "directed"});
  const size_t npos = flags.positional().size();
  if (BadUsage(flags, npos == 1 || npos == 2, "gen",
               WithPresets(
                   "usage: tcsm gen <preset|random> [<out.tel>|-] "
                   "[--scale=S] [--seed=K] [--window=D] [--expiry=explicit] "
                   "[--format=text|binary] [--varint=on|off] "
                   "[--block-records=N] [--vertices=N --edges=M --vlabels=a "
                   "--elabels=b --parallel=p --coalesce=c --directed]\n"),
               out)) {
    return 2;
  }
  const auto ds = BuildSynthetic(flags, flags.positional()[0], out);
  if (!ds) return 1;

  TelWriteOptions opts;
  if (!ResolveTelFormatFlags(flags, /*default_binary=*/false, &opts, out)) {
    return 1;
  }
  opts.window = flags.GetInt("window", 0);
  const std::string expiry = flags.GetString("expiry", "derived");
  if (expiry == "explicit") {
    opts.explicit_expiry = true;
  } else if (expiry != "derived") {
    out << "error: bad --expiry (expected 'derived' or 'explicit')\n";
    return 1;
  }
  const std::string path = flags.positional().size() == 2
                               ? flags.positional()[1]
                               : std::string("-");
  Status s;
  if (path == "-") {
    // Stream straight to the caller: `tcsm gen ... | tcsm replay - q.tq`.
    s = WriteTel(*ds, opts, out);
  } else {
    s = SaveTelFile(*ds, opts, path);
    if (s.ok()) {
      out << "wrote " << ds->NumEdges() << " edges / " << ds->NumVertices()
          << " vertices to " << path << "\n";
      PrintStats(*ds, out);
    }
  }
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

int CmdConvert(const Args& args, std::ostream& out) {
  const FlagSet flags(args, {"format", "varint", "block-records"});
  if (BadUsage(flags, flags.positional().size() == 2, "convert",
               "usage: tcsm convert <in.tel|-> <out.tel|-> "
               "[--format=binary|text] [--varint=on|off] "
               "[--block-records=N]\n"
               "   default --format is the opposite framing of the input\n",
               out)) {
    return 2;
  }
  const std::string in_path = flags.positional()[0];
  const std::string out_path = flags.positional()[1];
  std::ifstream in_file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    in_file.open(in_path, std::ios::binary);
    if (!in_file) {
      out << "error: cannot open " << in_path << "\n";
      return 1;
    }
    in = &in_file;
  }
  StreamReader reader(*in, in_path == "-" ? "<stdin>" : in_path);
  Status s = reader.Init();
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  if (!reader.has_vertex_universe()) {
    out << "error: " << reader.source()
        << ": convert needs the vertex universe declared up front "
           "(vertices=N in the header, or v records)\n";
    return 1;
  }
  TelWriteOptions opts;
  if (!ResolveTelFormatFlags(flags, /*default_binary=*/!reader.binary(),
                             &opts, out)) {
    return 1;
  }
  // The header carries over wholesale: convert changes the framing, never
  // the stream it frames.
  opts.window = reader.header().window;
  opts.explicit_expiry = reader.header().explicit_expiry;

  std::ofstream out_file;
  std::ostream* sink = &out;
  if (out_path != "-") {
    out_file.open(out_path, std::ios::binary);
    if (!out_file) {
      out << "error: cannot write " << out_path << "\n";
      return 1;
    }
    sink = &out_file;
  }
  StreamWriter writer(*sink);
  s = writer.BeginStream(reader.header().directed, reader.vertex_labels(),
                         opts);
  uint64_t records = 0;
  while (s.ok()) {
    StreamRecord rec;
    bool done = false;
    s = reader.Next(&rec, &done);
    if (!s.ok() || done) break;
    ++records;
    s = rec.kind == StreamRecord::Kind::kArrival
            ? writer.RecordArrival(rec.edge)
            : writer.RecordExpiry(rec.edge.ts);
  }
  if (s.ok()) s = writer.Finish();
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  if (out_path != "-") {
    // Stdout output gets no summary: `convert - -` sits in pipelines and
    // its stdout is the stream itself.
    out << "converted " << records << " records ("
        << (reader.binary() ? "binary" : "text") << " -> "
        << (opts.binary ? "binary" : "text") << ") to " << out_path << "\n";
  }
  return 0;
}

int CmdGenData(const Args& args, std::ostream& out) {
  const FlagSet flags(args, {"scale", "seed", "vertices", "edges", "vlabels",
                             "elabels", "parallel", "coalesce", "directed"});
  if (BadUsage(flags, flags.positional().size() == 2, "gen-data",
               WithPresets("usage: tcsm gen-data <preset|random> <out-file> "
                           "[--scale=S] [--seed=K] [--vertices=N --edges=M "
                           "--vlabels=a --elabels=b --parallel=p "
                           "--coalesce=c --directed]\n"),
               out)) {
    return 2;
  }
  const std::string path = flags.positional()[1];
  const auto ds = BuildSynthetic(flags, flags.positional()[0], out);
  if (!ds) return 1;
  const Status s = SaveEdgeListFile(*ds, path);
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  // Vertex labels go to a sibling file.
  std::ofstream lf(path + ".labels");
  for (size_t v = 0; v < ds->vertex_labels.size(); ++v) {
    lf << v << ' ' << ds->vertex_labels[v] << '\n';
  }
  out << "wrote " << ds->NumEdges() << " edges / " << ds->NumVertices()
      << " vertices to " << path << " (+ " << path << ".labels)\n";
  PrintStats(*ds, out);
  return 0;
}

int CmdGenQuery(const Args& args, std::ostream& out) {
  const FlagSet flags(args, {"size", "density", "window", "seed", "directed",
                             "labels", "gaps", "gap-slack", "absence",
                             "absence-delta"});
  if (BadUsage(flags, flags.positional().size() == 2, "gen-query",
               "usage: tcsm gen-query <dataset> <out-file> [--size=m] "
               "[--density=d] [--window=w] [--seed=K] [--directed] "
               "[--labels=file] [--gaps=p] [--gap-slack=s] [--absence=n] "
               "[--absence-delta=d]\n",
               out)) {
    return 2;
  }
  const auto ds = LoadDataset(flags, flags.positional()[0], out);
  if (!ds) return 1;
  QueryGenOptions opt;
  opt.num_edges = static_cast<size_t>(flags.GetInt("size", 5));
  opt.density = flags.GetDouble("density", 0.5);
  opt.window = flags.GetInt("window", 0);
  opt.gap_probability = flags.GetDouble("gaps", 0.0);
  opt.gap_slack = flags.GetInt("gap-slack", 8);
  opt.num_absence = static_cast<size_t>(flags.GetInt("absence", 0));
  opt.absence_delta = flags.GetInt("absence-delta", 5);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  QueryGraph q;
  if (!GenerateQuery(*ds, opt, &rng, &q)) {
    out << "error: could not extract a connected query of size "
        << opt.num_edges << "\n";
    return 1;
  }
  const Status s = SaveQueryFile(q, flags.positional()[1]);
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  out << "wrote query (|V|=" << q.NumVertices() << ", |E|=" << q.NumEdges()
      << ", density=" << FormatDouble(q.OrderDensity(), 2)
      << ", gaps=" << q.gaps().size() << ", absence=" << q.absences().size()
      << ") to " << flags.positional()[1] << "\n";
  return 0;
}

int CmdRun(const Args& args, std::ostream& out) {
  const FlagSet flags(args, {"window", "directed", "labels", "limit_ms",
                             "threads", "shards", "engine", "print",
                             "canonical", "metrics", "stats-every",
                             "trace-out"});
  if (BadUsage(flags, flags.positional().size() == 2, "run",
               "usage: tcsm run <dataset> <query-file> [--window=w] "
               "[--directed] [--labels=file] [--limit_ms=T] [--threads=N] "
               "[--shards=N] [--engine=tcm|timing|symbi|local] [--print] "
               "[--canonical] [--metrics[=on|off]] [--stats-every=N] "
               "[--trace-out=FILE]\n",
               out)) {
    return 2;
  }
  TelHeader header;
  const auto ds = LoadDataset(flags, flags.positional()[0], out, &header);
  if (!ds) return 1;
  const auto q = LoadQuery(flags.positional()[1], out);
  if (!q) return 1;
  if (q->directed() != ds->directed) {
    out << "error: query and data graph directedness differ\n";
    return 1;
  }
  const std::string kind = flags.GetString("engine", "tcm");
  const size_t shards = ResolveShards(flags, kind, out);
  if (shards == 0) return 1;
  const size_t threads = ResolveThreads(flags, shards, out);
  if (threads == 0) return 1;
  if (threads > 1) {
    // The pool fans out *engines*, sharded or not; this subcommand
    // attaches exactly one, so the run stays serial however many workers
    // the pool has. Say so, rather than letting the header's threads=
    // field suggest a parallel measurement.
    out << "note: run attaches a single engine; --threads=" << threads
        << " spreads per-engine work and cannot speed up one engine\n";
  }

  // The context owns the shared sliding-window graph — one canonical
  // graph, or a vertex-partitioned set of shard graphs under --shards.
  // The engine is a read-only view attached to it. At --threads=1 (the
  // default) the parallel context spawns no workers and is the serial
  // context.
  const GraphSchema schema{ds->directed, ds->vertex_labels};
  std::unique_ptr<SharedStreamContext> context;
  std::unique_ptr<ContinuousEngine> engine;
  if (shards > 1) {
    auto sharded =
        std::make_unique<ShardedStreamContext>(schema, shards, threads);
    engine = std::make_unique<ShardedTcmEngine>(*q, sharded->view());
    context = std::move(sharded);
  } else {
    auto parallel = std::make_unique<ParallelStreamContext>(schema, threads);
    engine = MakeCliEngine(kind, *q, parallel->graph(), out);
    context = std::move(parallel);
  }
  if (!engine) return 1;
  context->Attach(engine.get());

  StreamPrintSink print_sink(out);
  CountingSink counting_sink;
  MatchSink* sink = flags.Has("print")
                        ? static_cast<MatchSink*>(&print_sink)
                        : static_cast<MatchSink*>(&counting_sink);
  // --canonical: collapse automorphic mappings to one pattern instance.
  std::unique_ptr<CanonicalSink> canonical;
  if (flags.Has("canonical")) {
    canonical = std::make_unique<CanonicalSink>(*q, sink);
    out << "automorphism group size: " << canonical->GroupSize() << "\n";
    sink = canonical.get();
  }
  engine->set_sink(sink);
  ObsCliOptions obs;
  if (!ResolveObsFlags(flags, out, &obs)) return 1;
  StreamConfig config;
  // --window, else the query's w record, else the .tel header; the driver
  // refuses a missing or oversize window.
  config.window = ResolveWindow(flags, *q, header);
  config.time_limit_ms = flags.GetDouble("limit_ms", 0);
  config.obs = obs.obs.get();
  config.stats_every = obs.stats_every;
  config.stats_out = &out;
  const StreamResult res = RunStream(*ds, config, context.get());
  if (!res.error.ok()) {
    out << "error: " << res.error.ToString() << "\n";
    return 1;
  }
  PrintStreamResult(engine->name(), res, out);
  if (FinishObs(obs, /*json=*/false, out) != 0) return 1;
  return res.completed ? 0 : 3;
}

int CmdReplay(const Args& args, std::ostream& out) {
  const FlagSet flags(
      args, {"window", "threads", "shards", "max-events", "limit_ms",
             "engine", "print", "canonical", "json", "seek-ts",
             "flight-record", "flight-dump", "flight-format", "metrics",
             "stats-every", "trace-out"});
  if (BadUsage(flags, flags.positional().size() >= 2, "replay",
               "usage: tcsm replay <stream.tel|-> <query-file>... "
               "[--window=w] [--threads=N] [--shards=N] [--max-events=N] "
               "[--limit_ms=T] [--engine=tcm|timing|symbi|local] [--print] "
               "[--canonical] [--json] [--seek-ts=T] [--flight-record=N "
               "--flight-dump=FILE [--flight-format=text|binary]] "
               "[--metrics[=on|off]] [--stats-every=N] [--trace-out=FILE]\n",
               out)) {
    return 2;
  }
  const std::string stream_path = flags.positional()[0];
  std::ifstream file;
  std::istream* in = &std::cin;
  if (stream_path != "-") {
    file.open(stream_path, std::ios::binary);
    if (!file) {
      out << "error: cannot open " << stream_path << "\n";
      return 1;
    }
    in = &file;
  }
  StreamReader reader(*in, stream_path == "-" ? "<stdin>" : stream_path);
  Status s = reader.Init();
  if (!s.ok()) {
    out << "error: " << s.ToString() << "\n";
    return 1;
  }
  if (!reader.has_vertex_universe()) {
    out << "error: " << reader.source()
        << ": streaming replay needs the vertex universe declared up "
           "front (vertices=N in the header, or v records)\n";
    return 1;
  }
  if (flags.Has("seek-ts")) {
    // O(1) reposition off the binary index footer: replay then delivers
    // exactly the suffix of the full replay's event schedule (matches
    // included, once the window has refilled past the gap).
    s = reader.SeekToTimestamp(flags.GetInt("seek-ts", 0));
    if (!s.ok()) {
      out << "error: " << s.ToString() << "\n";
      return 1;
    }
  }

  std::vector<QueryGraph> queries;
  std::vector<std::string> query_paths(flags.positional().begin() + 1,
                                       flags.positional().end());
  for (const std::string& path : query_paths) {
    auto q = LoadQuery(path, out);
    if (!q) return 1;
    if (q->directed() != reader.header().directed) {
      out << "error: " << path
          << ": query and stream directedness differ\n";
      return 1;
    }
    queries.push_back(std::move(*q));
  }
  const bool json = flags.Has("json");
  // Absence predicates defer emission (DESIGN.md §12) — worth a header
  // line so a reordered match stream isn't mistaken for nondeterminism.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (json) break;
    const size_t ng = queries[i].gaps().size();
    const size_t na = queries[i].absences().size();
    if (ng == 0 && na == 0) continue;
    out << "note: " << query_paths[i] << " carries " << ng
        << " gap bound(s), " << na
        << " absence predicate(s) (absence defers emission)\n";
  }
  const std::string kind = flags.GetString("engine", "tcm");
  const size_t shards = ResolveShards(flags, kind, out);
  if (shards == 0) return 1;
  const size_t threads = ResolveThreads(flags, shards, out);
  if (threads == 0) return 1;
  // --json promises machine-readable stdout: exactly one JSON line, so
  // the advisory chatter below is suppressed under it.
  if (threads > 1 && queries.size() == 1 && !json) {
    out << "note: one query attaches a single engine; --threads=" << threads
        << " cannot speed up one engine (pass several query files)\n";
  }

  std::unique_ptr<SharedStreamContext> context;
  ShardedStreamContext* sharded = nullptr;
  if (shards > 1) {
    auto c = std::make_unique<ShardedStreamContext>(reader.schema(), shards,
                                                    threads);
    sharded = c.get();
    context = std::move(c);
  } else {
    context =
        std::make_unique<ParallelStreamContext>(reader.schema(), threads);
  }
  std::vector<std::unique_ptr<ContinuousEngine>> engines;
  std::vector<std::unique_ptr<MatchSink>> owned_sinks;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::unique_ptr<ContinuousEngine> engine =
        sharded != nullptr
            ? std::make_unique<ShardedTcmEngine>(queries[i], sharded->view())
            : MakeCliEngine(kind, queries[i], context->graph(), out);
    if (!engine) return 1;
    MatchSink* sink = nullptr;
    if (flags.Has("print")) {
      // Single-query output is byte-compatible with `run --print`; with
      // several queries each line is prefixed by its query index.
      // (Appended piecewise: "q" + to_string(i) trips a GCC 12
      // -Wrestrict false positive under -Werror.)
      std::string prefix;
      if (queries.size() > 1) {
        prefix.append("q").append(std::to_string(i)).append(" ");
      }
      owned_sinks.push_back(std::make_unique<StreamPrintSink>(out, prefix));
      sink = owned_sinks.back().get();
    }
    if (flags.Has("canonical")) {
      // Same semantics as `run --canonical`: collapse automorphic
      // mappings (over a counting sink when nothing is printed).
      if (sink == nullptr) {
        owned_sinks.push_back(std::make_unique<CountingSink>());
        sink = owned_sinks.back().get();
      }
      owned_sinks.push_back(
          std::make_unique<CanonicalSink>(queries[i], sink));
      sink = owned_sinks.back().get();
      if (!json) {
        out << "automorphism group size: "
            << static_cast<CanonicalSink*>(sink)->GroupSize() << "\n";
      }
    }
    if (sink != nullptr) engine->set_sink(sink);
    context->Attach(engine.get());
    engines.push_back(std::move(engine));
  }

  // Window precedence as in `run`, except every query file gets a say:
  // when no --window is passed, two queries recording different w
  // windows is an error the user must break explicitly, not a silent
  // pick of the first file's value.
  const Timestamp window_flag = flags.GetInt("window", 0);
  Timestamp hint = 0;
  for (size_t i = 0; i < queries.size() && window_flag <= 0; ++i) {
    const Timestamp w = queries[i].window_hint();
    if (w <= 0) continue;
    if (hint == 0) {
      hint = w;
    } else if (hint != w) {
      out << "error: query files disagree on their recorded windows ("
          << hint << " vs " << w << " in " << query_paths[i]
          << "); pass --window=w explicitly\n";
      return 1;
    }
  }
  if (reader.header().explicit_expiry && window_flag > 0 && !json) {
    out << "note: " << reader.source()
        << " carries its own expiry schedule (expiry=explicit); "
           "--window is ignored\n";
  }
  ObsCliOptions obs;
  if (!ResolveObsFlags(flags, out, &obs)) return 1;
  ReplayOptions opts;
  opts.window = window_flag > 0 ? window_flag : hint;

  // Flight recorder: retain the last N arrivals in memory and dump them
  // as a replayable .tel on exit — including the error exit, where the
  // dump is the reproducer.
  const int64_t flight_cap = flags.GetInt("flight-record", 0);
  const std::string flight_path = flags.GetString("flight-dump");
  if ((flight_cap > 0) != !flight_path.empty()) {
    out << "error: --flight-record=N and --flight-dump=FILE go together\n";
    return 1;
  }
  if (flags.Has("flight-record") && flight_cap <= 0) {
    out << "error: --flight-record must be > 0\n";
    return 1;
  }
  const std::string flight_format = flags.GetString("flight-format", "text");
  if (flight_format != "text" && flight_format != "binary") {
    out << "error: bad --flight-format (expected 'text' or 'binary')\n";
    return 1;
  }
  if (flags.Has("flight-format") && flight_cap <= 0) {
    out << "error: --flight-format requires --flight-record/--flight-dump\n";
    return 1;
  }
  std::unique_ptr<FlightRecorder> recorder;
  if (flight_cap > 0) {
    const Timestamp flight_window =
        opts.window > 0 ? opts.window : reader.header().window;
    recorder = std::make_unique<FlightRecorder>(
        reader.schema(), flight_window, static_cast<size_t>(flight_cap));
    opts.recorder = recorder.get();
  }
  const auto dump_flight = [&]() -> bool {
    if (recorder == nullptr) return true;
    const Status ds =
        recorder->DumpTelFile(flight_path, flight_format == "binary");
    if (!ds.ok()) {
      out << "error: " << ds.ToString() << "\n";
      return false;
    }
    if (!json) {
      out << "flight recorder: dumped " << recorder->size() << " of "
          << recorder->total_recorded() << " arrivals to " << flight_path
          << "\n";
    }
    return true;
  };
  opts.time_limit_ms = flags.GetDouble("limit_ms", 0);
  opts.max_arrivals =
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("max-events", 0)));
  opts.obs = obs.obs.get();
  opts.stats_every = obs.stats_every;
  // Under --json each stats tick is its own {"type":"stats",...} line
  // ahead of the final summary line, so stdout stays line-parseable.
  opts.stats_json = json;
  opts.stats_out = &out;
  auto res = ReplayStream(&reader, opts, context.get());
  if (!res.ok()) {
    out << "error: " << res.status().ToString() << "\n";
    dump_flight();  // the retained window is the reproducer
    return 1;
  }
  const StreamResult& r = res.value();
  if (json) {
    out << "{\"stream\":\"" << JsonEscape(reader.source())
        << "\",\"engine\":\"" << kind
        << "\",\"threads\":" << r.num_threads
        << ",\"shards\":" << r.num_shards << ",\"events\":" << r.events
        << ",\"occurred\":" << r.occurred << ",\"expired\":" << r.expired
        << ",\"elapsed_ms\":" << FormatDouble(r.elapsed_ms, 3)
        << ",\"peak_bytes\":" << r.peak_memory_bytes
        << ",\"peak_event_index\":" << r.peak_memory_event_index
        << ",\"adj_scanned\":" << r.adj_entries_scanned
        << ",\"adj_matched\":" << r.adj_entries_matched
        << ",\"update_ms\":" << NsToMs(r.update_ns)
        << ",\"search_ms\":" << NsToMs(r.search_ns)
        << ",\"completed\":" << (r.completed ? "true" : "false");
    if (obs.obs != nullptr) {
      out << ",\"stages\":" << StagesJson(SummarizeStages(obs.obs->Snapshot()));
    }
    out << ",\"queries\":[";
    for (size_t i = 0; i < engines.size(); ++i) {
      const EngineCounters& c = engines[i]->counters();
      out << (i == 0 ? "" : ",") << "{\"file\":\""
          << JsonEscape(query_paths[i]) << "\",\"occurred\":" << c.occurred
          << ",\"expired\":" << c.expired
          << ",\"update_ms\":" << NsToMs(c.update_ns)
          << ",\"search_ms\":" << NsToMs(c.search_ns)
          << ",\"gaps\":" << queries[i].gaps().size()
          << ",\"absence\":" << queries[i].absences().size() << "}";
    }
    out << "]}\n";
  } else {
    PrintStreamResult(engines[0]->name(), r, out);
    if (engines.size() > 1) {
      for (size_t i = 0; i < engines.size(); ++i) {
        const EngineCounters& c = engines[i]->counters();
        out << "  q" << i << " " << query_paths[i]
            << " occurred=" << c.occurred << " expired=" << c.expired
            << " update_ms=" << NsToMs(c.update_ns)
            << " search_ms=" << NsToMs(c.search_ns)
            << " gaps=" << queries[i].gaps().size()
            << " absence=" << queries[i].absences().size() << "\n";
      }
    }
  }
  if (!dump_flight()) return 1;
  if (FinishObs(obs, json, out) != 0) return 1;
  return r.completed ? 0 : 3;
}

int CmdSnapshot(const Args& args, std::ostream& out) {
  const FlagSet flags(args,
                      {"window", "directed", "labels", "limit_ms", "print"});
  if (BadUsage(flags, flags.positional().size() == 2, "snapshot",
               "usage: tcsm snapshot <dataset> <query-file> [--window=w] "
               "[--directed] [--labels=file] [--limit_ms=T] [--print]\n",
               out)) {
    return 2;
  }
  const auto ds = LoadDataset(flags, flags.positional()[0], out);
  if (!ds) return 1;
  const auto q = LoadQuery(flags.positional()[1], out);
  if (!q) return 1;
  SnapshotOptions opt;
  opt.window = flags.GetInt("window", 0);
  opt.time_limit_ms = flags.GetDouble("limit_ms", 0);
  if (flags.Has("print")) {
    const SnapshotResult res = FindAllMatches(*ds, *q, opt);
    for (const Embedding& m : res.matches) {
      StreamPrintSink(out).OnMatch(m, MatchKind::kOccurred, 1);
    }
    out << res.matches.size() << " matches"
        << (res.completed ? "" : " (INCOMPLETE)") << "\n";
    return res.completed ? 0 : 3;
  }
  const SnapshotCount res = CountAllMatches(*ds, *q, opt);
  out << res.matches << " matches"
      << (res.completed ? "" : " (INCOMPLETE)") << "\n";
  return res.completed ? 0 : 3;
}

int Main(int argc, char** argv, std::ostream& out, std::ostream& err) {
  const auto usage = [&err]() {
    err << "tcsm — time-constrained continuous subgraph matching\n"
           "subcommands:\n"
           "  stats      dataset characteristics\n"
           "  gen        synthesize a stream as a .tel file (or stdout)\n"
           "  convert    re-frame a .tel stream (text <-> binary v2)\n"
           "  gen-data   synthesize a legacy edge list (+ .labels)\n"
           "  gen-query  extract a temporal query by random walk\n"
           "  run        continuous matching over an in-memory stream\n"
           "  replay     file-driven continuous matching (.tel or stdin)\n"
           "  snapshot   one-shot matching over the full graph\n";
    return 2;
  };
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args rest;
  for (int i = 2; i < argc; ++i) rest.emplace_back(argv[i]);
  try {
    if (cmd == "stats") return CmdStats(rest, out);
    if (cmd == "gen") return CmdGen(rest, out);
    if (cmd == "convert") return CmdConvert(rest, out);
    if (cmd == "gen-data") return CmdGenData(rest, out);
    if (cmd == "gen-query") return CmdGenQuery(rest, out);
    if (cmd == "run") return CmdRun(rest, out);
    if (cmd == "replay") return CmdReplay(rest, out);
    if (cmd == "snapshot") return CmdSnapshot(rest, out);
  } catch (const FlagError& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}

}  // namespace tcsm::cli
