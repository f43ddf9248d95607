#include "io/tel_binary.h"

#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace tcsm {

namespace {

// Explicit little-endian codecs: shift form compiles to single loads and
// stores on LE hardware while keeping the wire format host-independent.

void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

int64_t LoadI64(const uint8_t* p) { return static_cast<int64_t>(LoadU64(p)); }

void PutU32(std::vector<uint8_t>* b, uint32_t v) {
  const size_t at = b->size();
  b->resize(at + 4);
  StoreU32(b->data() + at, v);
}

void PutU64(std::vector<uint8_t>* b, uint64_t v) {
  const size_t at = b->size();
  b->resize(at + 8);
  StoreU64(b->data() + at, v);
}

/// LEB128; timestamps are non-decreasing so deltas need no zigzag.
void PutVarint(std::vector<uint8_t>* b, uint64_t v) {
  while (v >= 0x80) {
    b->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  b->push_back(static_cast<uint8_t>(v));
}

constexpr size_t kMaxVarintBytes = 10;

/// Largest valid id bound, as in the text reader: ids must fit VertexId
/// with kInvalidVertex reserved.
constexpr uint64_t kMaxVertexCount = static_cast<uint64_t>(kInvalidVertex);

}  // namespace

// ---------------------------------------------------------------------------
// Writer

BinaryTelWriter::BinaryTelWriter(std::ostream& out) : out_(out) {}

void BinaryTelWriter::Write(const void* p, size_t n) {
  out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  bytes_written_ += n;
}

Status BinaryTelWriter::Begin(bool directed, const std::vector<Label>& labels,
                              Timestamp window, bool explicit_expiry,
                              bool varint, size_t block_records,
                              bool all_vertex_labels) {
  if (labels.empty()) {
    return Status::InvalidArgument(
        "binary .tel streams must declare a non-empty vertex universe");
  }
  if (labels.size() >= kMaxVertexCount) {
    return Status::InvalidArgument("vertex universe too large");
  }
  varint_ = varint;
  block_records_ =
      block_records > 0 ? block_records : kDefaultTelBlockRecords;
  if (block_records_ > kMaxTelBlockRecords) {
    block_records_ = kMaxTelBlockRecords;  // keep payloads readable
  }
  payload_.reserve(block_records_ * kTelFixedRecordBytes);

  Write(kTelBinaryMagic, sizeof(kTelBinaryMagic));
  uint8_t hdr[kTelBinaryHeaderBytes] = {};
  StoreU16(hdr, kTelBinaryVersion);
  uint16_t flags = 0;
  if (directed) flags |= kTelBinaryFlagDirected;
  if (explicit_expiry) flags |= kTelBinaryFlagExplicitExpiry;
  StoreU16(hdr + 2, flags);
  // hdr[4..8) reserved = 0
  StoreU64(hdr + 8, labels.size());
  StoreU64(hdr + 16, static_cast<uint64_t>(window));
  Write(hdr, sizeof(hdr));

  // Label section: only non-default labels, id-ascending (mirrors the
  // text writer's v-record policy), unless all_vertex_labels.
  std::vector<uint8_t> section;
  uint64_t count = 0;
  for (size_t v = 0; v < labels.size(); ++v) {
    if (all_vertex_labels || labels[v] != 0) {
      PutU32(&section, static_cast<uint32_t>(v));
      PutU32(&section, labels[v]);
      ++count;
    }
  }
  uint8_t cnt[8];
  StoreU64(cnt, count);
  Write(cnt, sizeof(cnt));
  if (!section.empty()) Write(section.data(), section.size());
  return Status::Ok();
}

void BinaryTelWriter::AppendRecord(uint8_t kind, const TemporalEdge& edge) {
  if (block_count_ == 0) {
    block_first_ts_ = edge.ts;
    prev_ts_ = edge.ts;  // first record's delta is 0 by construction
    block_first_arrival_ = arrivals_total_;
  }
  if (varint_) {
    payload_.push_back(kind);
    PutVarint(&payload_, static_cast<uint64_t>(edge.ts - prev_ts_));
    if (kind == kTelRecordArrival) {
      PutVarint(&payload_, edge.src);
      PutVarint(&payload_, edge.dst);
      PutVarint(&payload_, edge.label);
    }
  } else {
    PutU32(&payload_, kind);
    PutU32(&payload_, edge.src);
    PutU32(&payload_, edge.dst);
    PutU32(&payload_, edge.label);
    PutU64(&payload_, static_cast<uint64_t>(edge.ts));
  }
  prev_ts_ = edge.ts;
  block_last_ts_ = edge.ts;
  ++block_count_;
  if (kind == kTelRecordArrival) ++arrivals_total_;
  if (block_count_ >= block_records_) FlushBlock();
}

void BinaryTelWriter::AddArrival(const TemporalEdge& edge) {
  AppendRecord(kTelRecordArrival, edge);
}

void BinaryTelWriter::AddExpiry(Timestamp ts) {
  TemporalEdge e{};
  e.ts = ts;
  AppendRecord(kTelRecordExpiry, e);
}

void BinaryTelWriter::FlushBlock() {
  if (block_count_ == 0) return;
  TelBlockIndexEntry entry;
  entry.offset = bytes_written_;
  entry.first_ts = block_first_ts_;
  entry.last_ts = block_last_ts_;
  entry.record_count = block_count_;
  entry.encoding = varint_ ? kTelBlockVarint : kTelBlockFixed;
  entry.first_arrival_index = block_first_arrival_;
  index_.push_back(entry);

  uint8_t hdr[kTelBlockHeaderBytes] = {};
  StoreU32(hdr, block_count_);
  StoreU32(hdr + 4, entry.encoding);
  StoreU32(hdr + 8, static_cast<uint32_t>(payload_.size()));
  // hdr[12..16) reserved = 0
  StoreU64(hdr + 16, static_cast<uint64_t>(block_first_ts_));
  StoreU64(hdr + 24, static_cast<uint64_t>(block_last_ts_));
  Write(hdr, sizeof(hdr));
  Write(payload_.data(), payload_.size());
  payload_.clear();
  block_count_ = 0;
}

Status BinaryTelWriter::Finish() {
  FlushBlock();
  uint8_t sentinel[4] = {};  // record_count 0 = end of data
  Write(sentinel, sizeof(sentinel));
  const uint64_t index_offset = bytes_written_;
  uint8_t cnt[8];
  StoreU64(cnt, index_.size());
  Write(cnt, sizeof(cnt));
  for (const TelBlockIndexEntry& e : index_) {
    uint8_t row[kTelIndexEntryBytes];
    StoreU64(row, e.offset);
    StoreU64(row + 8, static_cast<uint64_t>(e.first_ts));
    StoreU64(row + 16, static_cast<uint64_t>(e.last_ts));
    StoreU32(row + 24, e.record_count);
    StoreU32(row + 28, e.encoding);
    StoreU64(row + 32, e.first_arrival_index);
    Write(row, sizeof(row));
  }
  uint8_t trailer[kTelTrailerBytes];
  StoreU64(trailer, index_offset);
  StoreU64(trailer + 8, index_.size());
  std::memcpy(trailer + 16, kTelBinaryFooterMagic, 8);
  Write(trailer, sizeof(trailer));
  out_.flush();
  if (!out_) return Status::InvalidArgument("stream write failed");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reader

BinaryTelReader::BinaryTelReader(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)) {}

Status BinaryTelReader::Fail(uint64_t offset, const std::string& what) const {
  return Status::CorruptInput(source_ + ":" + std::to_string(offset) + ": " +
                              what);
}

Status BinaryTelReader::ReadExact(void* buf, size_t n, const char* what) {
  const uint64_t at = bytes_consumed_;
  in_.read(static_cast<char*>(buf), static_cast<std::streamsize>(n));
  const size_t got = static_cast<size_t>(in_.gcount());
  bytes_consumed_ += got;
  if (got != n) {
    return Fail(at, std::string(what) + " (wanted " + std::to_string(n) +
                        " bytes, stream ended after " + std::to_string(got) +
                        ")");
  }
  return Status::Ok();
}

Status BinaryTelReader::Init() {
  TCSM_CHECK(!init_done_);
  init_done_ = true;
  uint8_t magic[sizeof(kTelBinaryMagic)];
  Status s = ReadExact(magic, sizeof(magic), "truncated stream");
  if (!s.ok()) return s;
  if (std::memcmp(magic, kTelBinaryMagic, sizeof(magic)) != 0) {
    return Fail(0, "bad binary magic (first byte says binary .tel v2, but "
                   "the 8-byte signature does not match — transport "
                   "corruption?)");
  }
  uint8_t hdr[kTelBinaryHeaderBytes];
  s = ReadExact(hdr, sizeof(hdr), "truncated header");
  if (!s.ok()) return s;
  const uint16_t version = LoadU16(hdr);
  if (version != kTelBinaryVersion) {
    return Fail(sizeof(magic),
                "unsupported tel version " + std::to_string(version) +
                    " (this reader implements binary version " +
                    std::to_string(kTelBinaryVersion) + ")");
  }
  const uint16_t flags = LoadU16(hdr + 2);
  const uint16_t known =
      kTelBinaryFlagDirected | kTelBinaryFlagExplicitExpiry;
  if ((flags & ~known) != 0) {
    return Fail(sizeof(magic) + 2,
                "unknown header flag bits (v2 flags: directed, "
                "expiry=explicit)");
  }
  const uint64_t num_vertices = LoadU64(hdr + 8);
  if (num_vertices == 0 || num_vertices >= kMaxVertexCount) {
    return Fail(sizeof(magic) + 8,
                "bad vertices count " + std::to_string(num_vertices) +
                    " (binary streams declare a non-empty universe)");
  }
  const int64_t window = LoadI64(hdr + 16);
  if (window < 0 || window > kMaxTelTimestamp) {
    return Fail(sizeof(magic) + 16,
                "bad window (must be a non-negative integer below 2^61)");
  }
  header_.version = version;
  header_.directed = (flags & kTelBinaryFlagDirected) != 0;
  header_.explicit_expiry = (flags & kTelBinaryFlagExplicitExpiry) != 0;
  header_.num_vertices = static_cast<size_t>(num_vertices);
  header_.has_vertices = true;
  header_.window = window;
  vertex_labels_.assign(header_.num_vertices, 0);

  uint8_t cnt[8];
  s = ReadExact(cnt, sizeof(cnt), "truncated label section");
  if (!s.ok()) return s;
  const uint64_t label_count = LoadU64(cnt);
  if (label_count > num_vertices) {
    return Fail(bytes_consumed_ - sizeof(cnt),
                "bad label count (more label records than vertices)");
  }
  int64_t prev_id = -1;
  for (uint64_t i = 0; i < label_count; ++i) {
    uint8_t pair[8];
    s = ReadExact(pair, sizeof(pair), "truncated label section");
    if (!s.ok()) return s;
    const uint32_t id = LoadU32(pair);
    if (id >= num_vertices) {
      return Fail(bytes_consumed_ - sizeof(pair),
                  "vertex id " + std::to_string(id) +
                      " out of declared range (vertices=" +
                      std::to_string(num_vertices) + ")");
    }
    if (static_cast<int64_t>(id) <= prev_id) {
      return Fail(bytes_consumed_ - sizeof(pair),
                  "label records must have strictly increasing vertex ids");
    }
    prev_id = static_cast<int64_t>(id);
    vertex_labels_[id] = LoadU32(pair + 4);
  }
  return Status::Ok();
}

Status BinaryTelReader::LoadNextBlock(bool* end) {
  *end = false;
  const auto start = parse_ns_ != nullptr
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point();
  const uint64_t block_offset = bytes_consumed_;
  uint8_t hdr[kTelBlockHeaderBytes];
  Status s = ReadExact(hdr, 4, "truncated stream (missing end-of-data "
                               "marker and index footer)");
  if (!s.ok()) return s;
  const uint32_t count = LoadU32(hdr);
  if (count == 0) {  // sentinel: data section ends, index follows
    *end = true;
    return Status::Ok();
  }
  s = ReadExact(hdr + 4, sizeof(hdr) - 4, "truncated block header");
  if (!s.ok()) return s;
  const uint32_t encoding = LoadU32(hdr + 4);
  const uint32_t payload_bytes = LoadU32(hdr + 8);
  const Timestamp first_ts = LoadI64(hdr + 16);
  const Timestamp last_ts = LoadI64(hdr + 24);
  if (encoding != kTelBlockFixed && encoding != kTelBlockVarint) {
    return Fail(block_offset + 4,
                "bad block encoding " + std::to_string(encoding) +
                    " (0 = fixed, 1 = varint)");
  }
  if (payload_bytes > kMaxTelBlockPayloadBytes) {
    return Fail(block_offset + 8, "block payload too large");
  }
  if (encoding == kTelBlockFixed) {
    if (static_cast<uint64_t>(count) * kTelFixedRecordBytes !=
        payload_bytes) {
      return Fail(block_offset + 8,
                  "block payload size does not match its record count");
    }
  } else if (payload_bytes < count) {  // >= 1 byte per varint record
    return Fail(block_offset + 8,
                "block payload too small for its record count");
  }
  if (first_ts < -kMaxTelTimestamp || last_ts > kMaxTelTimestamp ||
      first_ts > last_ts) {
    return Fail(block_offset + 16, "bad block timestamp frame");
  }
  if (first_ts < last_ts_) {
    return Fail(block_offset + 16,
                "block timestamps regress (first_ts " +
                    std::to_string(first_ts) + " after " +
                    std::to_string(last_ts_) + ")");
  }
  if (has_pending_check_) {
    // First block after a seek: the header must agree with the index
    // entry that sent us here, or the footer is stale/corrupt.
    if (pending_check_.record_count != count ||
        pending_check_.encoding != encoding ||
        pending_check_.first_ts != first_ts ||
        pending_check_.last_ts != last_ts) {
      return Fail(block_offset,
                  "index/footer mismatch (block header disagrees with its "
                  "index entry)");
    }
    has_pending_check_ = false;
  }
  payload_.resize(payload_bytes);
  payload_offset_ = bytes_consumed_;
  s = ReadExact(payload_.data(), payload_bytes, "truncated block");
  if (!s.ok()) return s;
  cursor_ = 0;
  block_remaining_ = count;
  block_encoding_ = encoding;
  block_first_ts_ = first_ts;
  block_last_ts_ = last_ts;
  prev_ts_ = first_ts;
  if (parse_ns_ != nullptr) {
    parse_ns_->Observe(DurationNs(start));
  }
  return Status::Ok();
}

Status BinaryTelReader::DecodeVarint(const uint8_t* end, const uint8_t** p,
                                     uint64_t* v, uint64_t record_offset) {
  uint64_t out = 0;
  int shift = 0;
  const uint8_t* q = *p;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (q == end) {
      return Fail(record_offset, "corrupt varint (runs past the block "
                                 "payload)");
    }
    const uint8_t byte = *q++;
    if (i == kMaxVarintBytes - 1 && (byte & ~uint8_t{1}) != 0) {
      return Fail(record_offset, "corrupt varint (value overflows 64 bits)");
    }
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *p = q;
      *v = out;
      return Status::Ok();
    }
    shift += 7;
  }
  return Fail(record_offset, "corrupt varint (more than 10 bytes)");
}

Status BinaryTelReader::Next(StreamRecord* record, bool* done) {
  TCSM_CHECK(init_done_);
  *done = false;
  consumed_any_ = true;
  while (true) {
    if (block_remaining_ == 0) {
      bool end = false;
      const Status s = LoadNextBlock(&end);
      if (!s.ok()) return s;
      if (end) {
        *done = true;
        return Status::Ok();
      }
    }
    const uint64_t record_offset = payload_offset_ + cursor_;
    uint8_t kind;
    uint64_t src = 0, dst = 0, label = 0;
    Timestamp ts;
    if (block_encoding_ == kTelBlockFixed) {
      const uint8_t* p = payload_.data() + cursor_;
      const uint32_t kind32 = LoadU32(p);
      if (kind32 > kTelRecordExpiry) {
        return Fail(record_offset,
                    "bad record kind " + std::to_string(kind32));
      }
      kind = static_cast<uint8_t>(kind32);
      src = LoadU32(p + 4);
      dst = LoadU32(p + 8);
      label = LoadU32(p + 12);
      ts = LoadI64(p + 16);
      cursor_ += kTelFixedRecordBytes;
    } else {
      const uint8_t* p = payload_.data() + cursor_;
      const uint8_t* const end = payload_.data() + payload_.size();
      if (p == end) {
        return Fail(record_offset,
                    "block payload exhausted before its record count");
      }
      kind = *p++;
      if (kind > kTelRecordExpiry) {
        return Fail(record_offset, "bad record kind " + std::to_string(kind));
      }
      uint64_t delta = 0;
      Status s = DecodeVarint(end, &p, &delta, record_offset);
      if (!s.ok()) return s;
      if (delta > static_cast<uint64_t>(kMaxTelTimestamp - prev_ts_)) {
        return Fail(record_offset,
                    "timestamp out of range (|ts| must stay below 2^61 so "
                    "expiry times cannot overflow)");
      }
      ts = prev_ts_ + static_cast<Timestamp>(delta);
      if (kind == kTelRecordArrival) {
        s = DecodeVarint(end, &p, &src, record_offset);
        if (s.ok()) s = DecodeVarint(end, &p, &dst, record_offset);
        if (s.ok()) s = DecodeVarint(end, &p, &label, record_offset);
        if (!s.ok()) return s;
      }
      cursor_ = static_cast<size_t>(p - payload_.data());
    }
    --block_remaining_;
    prev_ts_ = ts;
    if (block_remaining_ == 0 && cursor_ != payload_.size()) {
      return Fail(payload_offset_ + cursor_,
                  "block payload has trailing bytes past its last record");
    }

    // Record validation, mirroring the text reader plus the block frame.
    if (ts < -kMaxTelTimestamp || ts > kMaxTelTimestamp) {
      return Fail(record_offset,
                  "timestamp out of range (|ts| must stay below 2^61 so "
                  "expiry times cannot overflow)");
    }
    if (ts < block_first_ts_ || ts > block_last_ts_) {
      return Fail(record_offset,
                  "record timestamp outside its block's [first_ts, last_ts] "
                  "frame");
    }
    if (ts < last_ts_) {
      return Fail(record_offset,
                  "timestamps must be non-decreasing (got " +
                      std::to_string(ts) + " after " +
                      std::to_string(last_ts_) + ")");
    }
    if (kind == kTelRecordExpiry) {
      if (!header_.explicit_expiry) {
        return Fail(record_offset,
                    "explicit expiry record in a derived-expiry stream "
                    "(header lacks the expiry=explicit flag)");
      }
      if (expiries_ >= arrivals_) {
        return Fail(record_offset, "expiry record with no live edge");
      }
      last_ts_ = ts;
      ++expiries_;
      record->kind = StreamRecord::Kind::kExpiry;
      record->edge = TemporalEdge{};
      record->edge.ts = ts;
      return Status::Ok();
    }
    if (src >= header_.num_vertices || dst >= header_.num_vertices) {
      return Fail(record_offset,
                  "vertex id out of range (universe has " +
                      std::to_string(header_.num_vertices) + " vertices)");
    }
    if (label > std::numeric_limits<Label>::max()) {
      return Fail(record_offset, "bad edge label");
    }
    last_ts_ = ts;
    if (src == dst) continue;  // self loops never match; drop on ingest
    record->kind = StreamRecord::Kind::kArrival;
    record->edge = TemporalEdge{};
    record->edge.src = static_cast<VertexId>(src);
    record->edge.dst = static_cast<VertexId>(dst);
    record->edge.ts = ts;
    record->edge.label = static_cast<Label>(label);
    ++arrivals_;
    return Status::Ok();
  }
}

Status BinaryTelReader::SeekToTimestamp(Timestamp t) {
  TCSM_CHECK(init_done_ && !consumed_any_);
  if (header_.explicit_expiry) {
    return Status::InvalidArgument(
        source_ +
        ": cannot seek an explicit-expiry stream (x records reference the "
        "live-edge FIFO from the start of the stream)");
  }
  const uint64_t data_start = bytes_consumed_;
  in_.clear();
  in_.seekg(0, std::ios::end);
  if (!in_) {
    in_.clear();
    return Status::InvalidArgument(
        source_ + ": --seek-ts requires a seekable stream (not a pipe)");
  }
  const auto end_pos = in_.tellg();
  const uint64_t file_size = static_cast<uint64_t>(end_pos);
  // Raw tail reads: deliberately not ReadExact — the index is metadata,
  // not ingested stream bytes, and offsets here are absolute anyway.
  const auto read_at = [&](uint64_t off, void* buf, size_t n) -> bool {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(off));
    in_.read(static_cast<char*>(buf), static_cast<std::streamsize>(n));
    return static_cast<size_t>(in_.gcount()) == n;
  };
  uint8_t trailer[kTelTrailerBytes];
  if (file_size < data_start + 4 + 8 + kTelTrailerBytes ||
      !read_at(file_size - kTelTrailerBytes, trailer, sizeof(trailer)) ||
      std::memcmp(trailer + 16, kTelBinaryFooterMagic, 8) != 0) {
    return Fail(file_size >= kTelTrailerBytes ? file_size - kTelTrailerBytes
                                              : 0,
                "missing or corrupt index footer");
  }
  const uint64_t index_offset = LoadU64(trailer);
  const uint64_t num_blocks = LoadU64(trailer + 8);
  if (index_offset < data_start + 4 ||
      index_offset + 8 + num_blocks * kTelIndexEntryBytes !=
          file_size - kTelTrailerBytes) {
    return Fail(file_size - kTelTrailerBytes,
                "index/footer mismatch (index does not span the file tail)");
  }
  uint8_t cnt[8];
  if (!read_at(index_offset, cnt, sizeof(cnt)) ||
      LoadU64(cnt) != num_blocks) {
    return Fail(index_offset,
                "index/footer mismatch (block counts disagree)");
  }
  TelBlockIndexEntry target;
  bool found = false;
  uint64_t arrivals_past_end = 0;
  uint64_t prev_offset = 0;
  for (uint64_t i = 0; i < num_blocks; ++i) {
    uint8_t row[kTelIndexEntryBytes];
    const uint64_t row_off = index_offset + 8 + i * kTelIndexEntryBytes;
    if (!read_at(row_off, row, sizeof(row))) {
      return Fail(row_off, "truncated block index");
    }
    TelBlockIndexEntry e;
    e.offset = LoadU64(row);
    e.first_ts = LoadI64(row + 8);
    e.last_ts = LoadI64(row + 16);
    e.record_count = LoadU32(row + 24);
    e.encoding = LoadU32(row + 28);
    e.first_arrival_index = LoadU64(row + 32);
    if (e.offset < data_start || e.offset <= prev_offset ||
        e.offset >= index_offset || e.record_count == 0) {
      return Fail(row_off, "index/footer mismatch (bad index entry)");
    }
    if (i == 0 && e.offset != data_start) {
      return Fail(row_off,
                  "index/footer mismatch (first block offset is not the "
                  "data start)");
    }
    prev_offset = e.offset;
    if (!found && e.last_ts >= t) {
      target = e;
      found = true;
    }
    if (i == num_blocks - 1) {
      arrivals_past_end = e.first_arrival_index + e.record_count;
    }
  }
  in_.clear();
  if (!found) {
    // Every block ends before t: position at the sentinel; the next
    // Next() reports a clean end of stream.
    in_.seekg(static_cast<std::streamoff>(index_offset - 4));
    bytes_consumed_ = index_offset - 4;
    first_arrival_index_ = arrivals_past_end;
    return Status::Ok();
  }
  in_.seekg(static_cast<std::streamoff>(target.offset));
  bytes_consumed_ = target.offset;
  first_arrival_index_ = target.first_arrival_index;
  pending_check_ = target;
  has_pending_check_ = true;
  last_ts_ = kMinusInfinity;
  arrivals_ = 0;
  expiries_ = 0;
  return Status::Ok();
}

}  // namespace tcsm
