#include "io/stream_reader.h"

#include <chrono>
#include <fstream>
#include <istream>
#include <sstream>

#include "common/timer.h"
#include "graph/graph_io.h"
#include "io/tel_binary.h"
#include "obs/metrics.h"

namespace tcsm {

namespace {

/// Strips the comment tail and surrounding whitespace; returns true when
/// anything significant remains.
bool Significant(std::string* line) {
  const size_t hash = line->find('#');
  if (hash != std::string::npos) line->resize(hash);
  const size_t begin = line->find_first_not_of(" \t\r");
  if (begin == std::string::npos) return false;
  const size_t end = line->find_last_not_of(" \t\r");
  *line = line->substr(begin, end - begin + 1);
  return true;
}

bool HasTrailingGarbage(std::istringstream& ls) {
  std::string extra;
  return static_cast<bool>(ls >> extra);
}

/// Largest vertex id/count a record may carry: ids must fit VertexId
/// (kInvalidVertex is reserved), so anything larger is corrupt input,
/// not a big graph — rejecting it here keeps a hostile `vertices=9e18`
/// from turning into an allocation attempt.
constexpr int64_t kMaxVertexCount =
    static_cast<int64_t>(kInvalidVertex);  // valid ids are < this

constexpr int64_t kMaxLabel =
    static_cast<int64_t>(std::numeric_limits<Label>::max());

}  // namespace

StreamReader::StreamReader(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)) {}

StreamReader::~StreamReader() = default;

Status StreamReader::Fail(const std::string& what) const {
  return Status::CorruptInput(source_ + ":" + std::to_string(lineno_) +
                              ": " + what);
}

bool StreamReader::NextSignificantLine(std::string* body) {
  std::string line;
  while (std::getline(in_, line)) {
    ++lineno_;
    bytes_consumed_ += line.size() + 1;  // + the consumed newline
    if (Significant(&line)) {
      *body = std::move(line);
      return true;
    }
  }
  return false;
}

Status StreamReader::ParseHeader(const std::string& body) {
  std::istringstream ls(body);
  std::string magic, mode;
  int64_t version = 0;
  if (!(ls >> magic >> version >> mode) || magic != kTelMagic) {
    return Fail("bad header (expected 'tel <version> "
                "<directed|undirected> [key=value ...]')");
  }
  if (version != kTelVersion) {
    return Fail("unsupported tel version " + std::to_string(version) +
                " (this reader implements version " +
                std::to_string(kTelVersion) + ")");
  }
  header_.version = static_cast<int>(version);
  if (mode == "directed") {
    header_.directed = true;
  } else if (mode == "undirected") {
    header_.directed = false;
  } else {
    return Fail("bad directedness '" + mode +
                "' (expected 'directed' or 'undirected')");
  }
  std::string kv;
  while (ls >> kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Fail("bad header token '" + kv + "' (expected key=value)");
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    std::istringstream vs(value);
    if (key == "vertices") {
      int64_t n = 0;
      if (!(vs >> n) || HasTrailingGarbage(vs) || n < 0 ||
          n > kMaxVertexCount) {
        return Fail("bad vertices count '" + value + "'");
      }
      header_.num_vertices = static_cast<size_t>(n);
      header_.has_vertices = true;
    } else if (key == "window") {
      Timestamp w = 0;
      if (!(vs >> w) || HasTrailingGarbage(vs) || w <= 0 ||
          w > kMaxTelTimestamp) {
        return Fail("bad window '" + value + "' (must be a positive integer "
                    "below 2^61)");
      }
      header_.window = w;
    } else if (key == "expiry") {
      if (value == "explicit") {
        header_.explicit_expiry = true;
      } else if (value == "derived") {
        header_.explicit_expiry = false;
      } else {
        return Fail("bad expiry mode '" + value +
                    "' (expected 'derived' or 'explicit')");
      }
    } else {
      return Fail("unknown header key '" + key +
                  "' (v1 keys: vertices, window, expiry)");
    }
  }
  return Status::Ok();
}

Status StreamReader::Init() {
  TCSM_CHECK(!init_done_);
  init_done_ = true;
  // Framing sniff: 0x89 can never begin a text .tel line, so one peeked
  // byte decides, and the byte is not consumed either way.
  if (in_.peek() == kTelBinaryMagic[0]) {
    binary_ = std::make_unique<BinaryTelReader>(in_, source_);
    if (stages_ != nullptr) binary_->set_parse_histogram(stages_->parse_ns);
    const Status s = binary_->Init();
    if (!s.ok()) return s;
    header_ = binary_->header();
    vertex_labels_ = binary_->vertex_labels();
    has_universe_ = true;
    return Status::Ok();
  }
  std::string body;
  if (!NextSignificantLine(&body)) {
    return Fail("missing tel header (empty stream)");
  }
  const Status header_status = ParseHeader(body);
  if (!header_status.ok()) return header_status;
  if (header_.has_vertices) {
    vertex_labels_.assign(header_.num_vertices, 0);
    label_declared_.assign(header_.num_vertices, false);
    has_universe_ = true;
  }
  // Consume the v-record prefix; stop at the first data record, which is
  // kept pending for Next().
  while (NextSignificantLine(&body)) {
    if (body[0] != 'v' || (body.size() > 1 && body[1] != ' ' &&
                           body[1] != '\t')) {
      pending_ = std::move(body);
      has_pending_ = true;
      break;
    }
    std::istringstream ls(body);
    std::string tag;
    int64_t id = 0, label = 0;
    if (!(ls >> tag >> id >> label) || HasTrailingGarbage(ls) || id < 0 ||
        id >= kMaxVertexCount || label < 0 || label > kMaxLabel) {
      return Fail("bad vertex label record (expected 'v <id> <label>')");
    }
    const size_t v = static_cast<size_t>(id);
    if (header_.has_vertices && v >= header_.num_vertices) {
      return Fail("vertex id " + std::to_string(id) +
                  " out of declared range (vertices=" +
                  std::to_string(header_.num_vertices) + ")");
    }
    if (v >= vertex_labels_.size()) {
      vertex_labels_.resize(v + 1, 0);
      label_declared_.resize(v + 1, false);
    }
    if (label_declared_[v]) {
      return Fail("duplicate vertex label record for vertex " +
                  std::to_string(id));
    }
    label_declared_[v] = true;
    vertex_labels_[v] = static_cast<Label>(label);
    has_universe_ = true;
  }
  return Status::Ok();
}

GraphSchema StreamReader::schema() const {
  TCSM_CHECK(init_done_ && has_universe_);
  return GraphSchema{header_.directed, vertex_labels_};
}

void StreamReader::set_metrics(const StageMetrics* stages) {
  stages_ = stages;
  if (binary_ != nullptr) {
    binary_->set_parse_histogram(stages != nullptr ? stages->parse_ns
                                                   : nullptr);
  }
}

void StreamReader::FlushIngestMetrics(uint64_t records) {
  if (records > 0 && stages_->ingest_records != nullptr) {
    stages_->ingest_records->Add(records);
  }
  if (stages_->ingest_bytes != nullptr) {
    const uint64_t consumed =
        binary_ != nullptr ? binary_->bytes_consumed() : bytes_consumed_;
    if (consumed > bytes_reported_) {
      stages_->ingest_bytes->Add(consumed - bytes_reported_);
      bytes_reported_ = consumed;
    }
  }
}

uint64_t StreamReader::first_arrival_index() const {
  return binary_ != nullptr ? binary_->first_arrival_index() : 0;
}

Status StreamReader::SeekToTimestamp(Timestamp t) {
  TCSM_CHECK(init_done_);
  if (binary_ == nullptr) {
    return Status::InvalidArgument(
        source_ +
        ": seek requires a binary .tel stream (the text format has no "
        "block index; `tcsm convert` produces one)");
  }
  const Status s = binary_->SeekToTimestamp(t);
  // Skipped bytes were never ingested; resync the metrics base.
  if (s.ok()) bytes_reported_ = binary_->bytes_consumed();
  return s;
}

Status StreamReader::Next(StreamRecord* record, bool* done) {
  TCSM_CHECK(init_done_);
  if (binary_ != nullptr) {
    const Status s = binary_->Next(record, done);
    if (s.ok() && stages_ != nullptr) FlushIngestMetrics(*done ? 0 : 1);
    return s;
  }
  // Text framing: per-record parse latency (the binary reader observes
  // per block load instead — see set_metrics).
  const bool timed = stages_ != nullptr && stages_->parse_ns != nullptr;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  const Status s = NextText(record, done);
  if (timed) {
    stages_->parse_ns->Observe(DurationNs(start));
  }
  if (s.ok() && stages_ != nullptr) FlushIngestMetrics(*done ? 0 : 1);
  return s;
}

Status StreamReader::NextText(StreamRecord* record, bool* done) {
  *done = false;
  std::string body;
  while (true) {
    if (has_pending_) {
      body = std::move(pending_);
      has_pending_ = false;
    } else if (!NextSignificantLine(&body)) {
      *done = true;
      return Status::Ok();
    }
    std::istringstream ls(body);
    std::string tag;
    ls >> tag;
    if (tag == "e") {
      int64_t src = 0, dst = 0;
      Timestamp ts = 0;
      int64_t elabel = 0;
      if (!(ls >> src >> dst >> ts)) {
        return Fail("bad edge record (expected 'e <src> <dst> <ts> "
                    "[<elabel>]')");
      }
      // The optional label is re-parsed from its token so that int64
      // overflow (which consumes the digits and would read back as "no
      // label") cannot smuggle a corrupt field through.
      std::string label_tok;
      if (ls >> label_tok) {
        if (HasTrailingGarbage(ls)) return Fail("trailing garbage");
        std::istringstream lv(label_tok);
        if (!(lv >> elabel) || HasTrailingGarbage(lv) || elabel < 0 ||
            elabel > kMaxLabel) {
          return Fail("bad edge label '" + label_tok + "'");
        }
      }
      if (src < 0 || dst < 0) return Fail("negative vertex id");
      if (src >= kMaxVertexCount || dst >= kMaxVertexCount) {
        return Fail("vertex id out of range");
      }
      if (has_universe_ &&
          (static_cast<size_t>(src) >= vertex_labels_.size() ||
           static_cast<size_t>(dst) >= vertex_labels_.size())) {
        return Fail("vertex id out of range (universe has " +
                    std::to_string(vertex_labels_.size()) +
                    " vertices; declare more with vertices=N or v records)");
      }
      if (ts < -kMaxTelTimestamp || ts > kMaxTelTimestamp) {
        return Fail("timestamp out of range (|ts| must stay below 2^61 "
                    "so expiry times cannot overflow)");
      }
      if (ts < last_ts_) {
        return Fail("timestamps must be non-decreasing (got " +
                    std::to_string(ts) + " after " +
                    std::to_string(last_ts_) + ")");
      }
      last_ts_ = ts;
      if (src == dst) continue;  // self loops never match; drop on ingest
      record->kind = StreamRecord::Kind::kArrival;
      record->edge = TemporalEdge{};
      record->edge.src = static_cast<VertexId>(src);
      record->edge.dst = static_cast<VertexId>(dst);
      record->edge.ts = ts;
      record->edge.label = static_cast<Label>(elabel);
      ++arrivals_;
      return Status::Ok();
    }
    if (tag == "x") {
      if (!header_.explicit_expiry) {
        return Fail("explicit expiry record in a derived-expiry stream "
                    "(header lacks expiry=explicit)");
      }
      Timestamp ts = 0;
      if (!(ls >> ts) || HasTrailingGarbage(ls)) {
        return Fail("bad expiry record (expected 'x <ts>')");
      }
      if (ts < -kMaxTelTimestamp || ts > kMaxTelTimestamp) {
        return Fail("timestamp out of range (|ts| must stay below 2^61 "
                    "so expiry times cannot overflow)");
      }
      if (ts < last_ts_) {
        return Fail("timestamps must be non-decreasing (got " +
                    std::to_string(ts) + " after " +
                    std::to_string(last_ts_) + ")");
      }
      if (expiries_ >= arrivals_) {
        return Fail("expiry record with no live edge");
      }
      last_ts_ = ts;
      ++expiries_;
      record->kind = StreamRecord::Kind::kExpiry;
      record->edge = TemporalEdge{};
      record->edge.ts = ts;
      return Status::Ok();
    }
    if (tag == "v") {
      return Fail("vertex label record after the first data record "
                  "(v records must form a prefix)");
    }
    return Fail("unknown record tag '" + tag + "'");
  }
}

StatusOr<TemporalDataset> ReadTelDataset(std::istream& in,
                                         const std::string& source,
                                         TelHeader* header_out) {
  StreamReader reader(in, source);
  Status s = reader.Init();
  if (!s.ok()) return s;
  TemporalDataset ds;
  ds.name = source;
  ds.directed = reader.header().directed;
  VertexId max_vertex = 0;
  bool any = false;
  StreamRecord rec;
  bool done = false;
  while (true) {
    s = reader.Next(&rec, &done);
    if (!s.ok()) return s;
    if (done) break;
    if (rec.kind != StreamRecord::Kind::kArrival) continue;  // validated
    ds.edges.push_back(rec.edge);
    max_vertex = std::max({max_vertex, rec.edge.src, rec.edge.dst});
    any = true;
  }
  if (reader.has_vertex_universe()) {
    ds.vertex_labels = reader.vertex_labels();
  } else {
    ds.vertex_labels.assign(any ? max_vertex + 1 : 0, 0);
  }
  // Timestamps are non-decreasing by construction, so the stable sort
  // preserves file order and ids equal arrival positions.
  ds.Normalize();
  if (header_out != nullptr) *header_out = reader.header();
  return ds;
}

StatusOr<TemporalDataset> LoadTelFile(const std::string& path,
                                      TelHeader* header_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return ReadTelDataset(in, path, header_out);
}

bool SniffTelFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  if (in.peek() == kTelBinaryMagic[0]) return true;  // binary v2
  std::string line;
  while (std::getline(in, line)) {
    if (!Significant(&line)) continue;
    std::istringstream ls(line);
    std::string magic;
    ls >> magic;
    return magic == kTelMagic;
  }
  return false;
}

StatusOr<TemporalDataset> LoadAnyDatasetFile(const std::string& path,
                                             bool directed_fallback,
                                             TelHeader* header_out) {
  if (SniffTelFile(path)) return LoadTelFile(path, header_out);
  if (header_out != nullptr) *header_out = TelHeader{};
  auto ds = LoadEdgeListFile(path, directed_fallback);
  if (ds.ok() && header_out != nullptr) {
    header_out->directed = directed_fallback;
  }
  return ds;
}

}  // namespace tcsm
