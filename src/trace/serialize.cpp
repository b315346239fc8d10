#include "trace/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "trace/format.hpp"
#include "trace/view.hpp"

namespace pwx::trace {

namespace {

using format::fnv1a_lanes;
using format::fnv1a_update;
using format::kEventBytes;
using format::kFnvOffset;
using format::kHeaderBytesV3;
using format::kHeaderBytesV4;
using format::kMagicBytes;
using format::kMagicV2;
using format::kMagicV3;
using format::kMagicV4;
using format::kSectionAttributes;
using format::kSectionCount;
using format::kSectionEvents;
using format::kSectionMetrics;
using format::kSectionRegions;
using format::pad8;

/// Attribute pairs sorted by key: the attribute map itself is unordered,
/// but the writer serializes attributes in sorted order so identical traces
/// always produce identical bytes.
std::vector<std::pair<const std::string*, const std::string*>> sorted_attributes(
    const Trace& trace) {
  std::vector<std::pair<const std::string*, const std::string*>> attrs;
  attrs.reserve(trace.attributes().size());
  for (const auto& [key, value] : trace.attributes()) {
    attrs.emplace_back(&key, &value);
  }
  std::sort(attrs.begin(), attrs.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  return attrs;
}

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void append_string(std::string& out, const std::string& s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

template <typename T>
void append_array(std::string& out, const std::vector<T>& values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(T));
}

/// Zero-pad `out` so the current section ends on an 8-byte boundary.
void append_padding(std::string& out, std::size_t content_bytes) {
  out.append(pad8(content_bytes) - content_bytes, '\0');
}

enum : std::uint8_t { kRegionEnter = 1, kRegionExit = 2, kMetric = 3 };

/// Checksumming, position-tracking wrapper over the input stream (v2 path).
/// Every failure it throws is an IoError carrying the byte offset where
/// parsing stopped and the index of the event record being decoded (-1
/// while still in the header), so a corrupt file is diagnosable down to
/// the byte.
class Reader {
public:
  explicit Reader(std::istream& in) : in_(in) {}

  void begin_record(std::uint64_t index) { record_ = static_cast<std::int64_t>(index); }
  std::uint64_t checksum() const { return checksum_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw IoError("trace: " + what + " (byte " + std::to_string(offset_) +
                      ", record " + std::to_string(record_) + ")",
                  static_cast<std::int64_t>(offset_), record_);
  }

  std::uint8_t u8() {
    char buf[1];
    raw(buf, 1);
    return static_cast<std::uint8_t>(buf[0]);
  }

  std::uint32_t u32() {
    char buf[4];
    raw(buf, 4);
    std::uint32_t v = 0;
    std::memcpy(&v, buf, 4);
    return v;
  }

  std::uint64_t u64() {
    char buf[8];
    raw(buf, 8);
    std::uint64_t v = 0;
    std::memcpy(&v, buf, 8);
    return v;
  }

  double f64() {
    char buf[8];
    raw(buf, 8);
    double v = 0;
    std::memcpy(&v, buf, 8);
    return v;
  }

  std::string string() {
    const std::uint32_t len = u32();
    if (len > (1u << 24)) {
      fail("implausible string length " + std::to_string(len));
    }
    std::string s(len, '\0');
    if (len > 0) {
      raw(s.data(), len);
    }
    return s;
  }

  /// The footer is read outside the checksummed body.
  std::uint64_t footer_u64() {
    char buf[8];
    if (!in_.read(buf, 8)) {
      fail("truncated before checksum footer");
    }
    offset_ += 8;
    std::uint64_t v = 0;
    std::memcpy(&v, buf, 8);
    return v;
  }

private:
  void raw(char* buf, std::size_t size) {
    if (!in_.read(buf, static_cast<std::streamsize>(size))) {
      fail("unexpected end of stream");
    }
    fnv1a_update(checksum_, buf, size);
    offset_ += size;
  }

  std::istream& in_;
  std::uint64_t offset_ = kMagicBytes;   ///< bytes consumed, incl. magic
  std::int64_t record_ = -1;             ///< current event record (-1: header)
  std::uint64_t checksum_ = kFnvOffset;  ///< running FNV-1a over body bytes
};

}  // namespace

// ------------------------------------------------------------------ writers

void write_trace(const Trace& trace, std::ostream& out) {
  const EventColumns& columns = trace.columns();
  const auto attrs = sorted_attributes(trace);

  // Exact content sizes up front; each section is recorded and written at
  // its zero-padded size so every section — and every event column inside
  // the widest-first event section — starts on an 8-byte boundary.
  std::size_t attr_bytes = 4;
  for (const auto& [key, value] : attrs) {
    attr_bytes += 8 + key->size() + value->size();
  }
  std::size_t metric_bytes = 4;
  for (const MetricDefinition& metric : trace.metrics()) {
    metric_bytes += 9 + metric.name.size() + metric.unit.size();
  }
  std::size_t region_bytes = 4;
  for (const std::string& region : columns.regions.names()) {
    region_bytes += 4 + region.size();
  }
  const std::size_t event_bytes = 8 + columns.size() * kEventBytes;

  std::string body;
  body.reserve(kHeaderBytesV4 + pad8(attr_bytes) + pad8(metric_bytes) +
               pad8(region_bytes) + pad8(event_bytes) + 8);

  append_u32(body, kSectionCount);
  append_u32(body, 0);  // reserved
  const std::pair<std::uint32_t, std::size_t> table[kSectionCount] = {
      {kSectionAttributes, attr_bytes},
      {kSectionMetrics, metric_bytes},
      {kSectionRegions, region_bytes},
      {kSectionEvents, event_bytes},
  };
  for (const auto& [id, size] : table) {
    append_u32(body, id);
    append_u32(body, 0);  // reserved
    append_u64(body, pad8(size));
  }

  append_u32(body, static_cast<std::uint32_t>(attrs.size()));
  for (const auto& [key, value] : attrs) {
    append_string(body, *key);
    append_string(body, *value);
  }
  append_padding(body, attr_bytes);

  append_u32(body, static_cast<std::uint32_t>(trace.metrics().size()));
  for (const MetricDefinition& metric : trace.metrics()) {
    append_string(body, metric.name);
    append_string(body, metric.unit);
    append_u8(body, static_cast<std::uint8_t>(metric.mode));
  }
  append_padding(body, metric_bytes);

  append_u32(body, static_cast<std::uint32_t>(columns.regions.size()));
  for (const std::string& region : columns.regions.names()) {
    append_string(body, region);
  }
  append_padding(body, region_bytes);

  // Columns widest-first (times, values, ids, kinds) so each starts on an
  // 8-byte boundary — the property the zero-copy reader aliases through.
  append_u64(body, columns.size());
  append_array(body, columns.times);
  append_array(body, columns.values);
  append_array(body, columns.ids);
  append_array(body, columns.kinds);
  append_padding(body, event_bytes);
  append_u64(body, fnv1a_lanes(body.data(), body.size()));  // checksum footer

  out.write(kMagicV4, sizeof kMagicV4);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) {
    throw IoError("trace: write failed");
  }
}

void write_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw IoError("trace: cannot open '" + path + "' for writing");
  }
  write_trace(trace, out);
}

// ------------------------------------------------------------------ readers

namespace {

Trace read_body_v2(Reader& reader) {
  Trace trace;
  const std::uint32_t attr_count = reader.u32();
  if (attr_count > (1u << 20)) {
    reader.fail("implausible attribute count " + std::to_string(attr_count));
  }
  for (std::uint32_t i = 0; i < attr_count; ++i) {
    std::string key = reader.string();
    std::string value = reader.string();
    trace.set_attribute(key, value);
  }

  const std::uint32_t metric_count = reader.u32();
  if (metric_count > (1u << 20)) {
    reader.fail("implausible metric count " + std::to_string(metric_count));
  }
  for (std::uint32_t i = 0; i < metric_count; ++i) {
    MetricDefinition metric;
    metric.name = reader.string();
    metric.unit = reader.string();
    const std::uint8_t mode = reader.u8();
    if (mode > static_cast<std::uint8_t>(MetricMode::CounterIncrement)) {
      reader.fail("invalid metric mode " + std::to_string(mode));
    }
    metric.mode = static_cast<MetricMode>(mode);
    trace.define_metric(std::move(metric));
  }

  const std::uint64_t event_count = reader.u64();
  if (event_count > (1ull << 32)) {
    reader.fail("implausible event count " + std::to_string(event_count));
  }
  for (std::uint64_t i = 0; i < event_count; ++i) {
    reader.begin_record(i);
    const std::uint8_t kind = reader.u8();
    switch (kind) {
      case kRegionEnter: {
        RegionEnter e;
        e.time_ns = reader.u64();
        e.region = reader.string();
        trace.append(std::move(e));
        break;
      }
      case kRegionExit: {
        RegionExit e;
        e.time_ns = reader.u64();
        e.region = reader.string();
        trace.append(std::move(e));
        break;
      }
      case kMetric: {
        MetricEvent e;
        e.time_ns = reader.u64();
        e.metric = reader.u32();
        if (e.metric >= trace.metrics().size()) {
          reader.fail("metric id " + std::to_string(e.metric) +
                      " out of range (have " +
                      std::to_string(trace.metrics().size()) + ")");
        }
        e.value = reader.f64();
        trace.append(e);
        break;
      }
      default:
        reader.fail("unknown event kind " + std::to_string(kind));
    }
  }

  const std::uint64_t expected = reader.checksum();
  const std::uint64_t stored = reader.footer_u64();
  if (stored != expected) {
    reader.fail("checksum mismatch (file corrupt)");
  }
  return trace;
}

/// Bounds-checked cursor over the in-memory v3 body. Offsets in errors are
/// absolute file offsets (the 8-byte magic precedes the body).
class BufReader {
public:
  BufReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  [[noreturn]] void fail(const std::string& what, std::int64_t record = -1,
                         std::size_t at_pos = static_cast<std::size_t>(-1)) const {
    const std::size_t pos = at_pos == static_cast<std::size_t>(-1) ? pos_ : at_pos;
    const std::size_t offset = pos + kMagicBytes;
    throw IoError("trace: " + what + " (byte " + std::to_string(offset) +
                      ", record " + std::to_string(record) + ")",
                  static_cast<std::int64_t>(offset), record);
  }

  const char* raw(std::size_t size, std::int64_t record = -1) {
    if (size > remaining()) {
      fail("unexpected end of stream", record, size_);
    }
    const char* ptr = data_ + pos_;
    pos_ += size;
    return ptr;
  }

  std::uint8_t u8(std::int64_t record = -1) {
    std::uint8_t v = 0;
    std::memcpy(&v, raw(1, record), 1);
    return v;
  }

  std::uint32_t u32(std::int64_t record = -1) {
    std::uint32_t v = 0;
    std::memcpy(&v, raw(4, record), 4);
    return v;
  }

  std::uint64_t u64(std::int64_t record = -1) {
    std::uint64_t v = 0;
    std::memcpy(&v, raw(8, record), 8);
    return v;
  }

  std::string string() {
    const std::uint32_t len = u32();
    if (len > (1u << 24)) {
      fail("implausible string length " + std::to_string(len));
    }
    return std::string(raw(len), len);
  }

private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Drain the rest of `in` into one contiguous buffer (single-pass bulk read).
std::string read_remaining(std::istream& in) {
  std::string data;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    data.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (!in) {
      break;
    }
  }
  return data;
}

template <typename T>
std::vector<T> read_column(BufReader& reader, std::size_t count) {
  std::vector<T> out(count);
  const char* src = reader.raw(count * sizeof(T),
                               static_cast<std::int64_t>(reader.remaining() / sizeof(T)));
  if (count > 0) {
    std::memcpy(out.data(), src, count * sizeof(T));
  }
  return out;
}

/// The v3 and v4 body readers take the body plus its 8-byte footer;
/// read_trace has already checked that the footer is there.
Trace read_body_v3(const std::string& buffer) {
  const std::size_t body_size = buffer.size() - 8;
  BufReader reader(buffer.data(), body_size);

  // Section table.
  const std::uint32_t section_count = reader.u32();
  if (section_count != kSectionCount) {
    reader.fail("unexpected section count " + std::to_string(section_count));
  }
  std::size_t section_sizes[kSectionCount] = {};
  std::size_t total = kHeaderBytesV3;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const std::uint32_t id = reader.u32();
    if (id != s + 1) {
      reader.fail("unexpected section id " + std::to_string(id));
    }
    const std::uint64_t size = reader.u64();
    if (size > body_size) {
      reader.fail("implausible section size " + std::to_string(size));
    }
    section_sizes[s] = static_cast<std::size_t>(size);
    total += section_sizes[s];
  }
  // Trailing bytes beyond the declared sections are a structural error. A
  // *shorter* body (truncated file) is not failed here: parsing continues so
  // the eventual end-of-stream error points at the exact byte and — when the
  // cut lands inside the event arrays — the exact record.
  if (total < body_size) {
    reader.fail("section sizes do not cover the body (" + std::to_string(total) +
                " vs " + std::to_string(body_size) + ")");
  }

  Trace trace;

  // Attributes.
  std::size_t section_end = reader.pos() + section_sizes[0];
  const std::uint32_t attr_count = reader.u32();
  if (attr_count > (1u << 20)) {
    reader.fail("implausible attribute count " + std::to_string(attr_count));
  }
  for (std::uint32_t i = 0; i < attr_count; ++i) {
    std::string key = reader.string();
    std::string value = reader.string();
    trace.set_attribute(key, value);
  }
  if (reader.pos() != section_end) {
    reader.fail("attribute section size mismatch");
  }

  // Metric definitions.
  section_end = reader.pos() + section_sizes[1];
  const std::uint32_t metric_count = reader.u32();
  if (metric_count > (1u << 20)) {
    reader.fail("implausible metric count " + std::to_string(metric_count));
  }
  for (std::uint32_t i = 0; i < metric_count; ++i) {
    MetricDefinition metric;
    metric.name = reader.string();
    metric.unit = reader.string();
    const std::uint8_t mode = reader.u8();
    if (mode > static_cast<std::uint8_t>(MetricMode::CounterIncrement)) {
      reader.fail("invalid metric mode " + std::to_string(mode));
    }
    metric.mode = static_cast<MetricMode>(mode);
    trace.define_metric(std::move(metric));
  }
  if (reader.pos() != section_end) {
    reader.fail("metric section size mismatch");
  }

  // Region string table.
  section_end = reader.pos() + section_sizes[2];
  const std::uint32_t region_count = reader.u32();
  if (region_count > (1u << 20)) {
    reader.fail("implausible region count " + std::to_string(region_count));
  }
  EventColumns columns;
  for (std::uint32_t i = 0; i < region_count; ++i) {
    const std::string region = reader.string();
    if (columns.regions.intern(region) != i) {
      reader.fail("duplicate region name '" + region + "'");
    }
  }
  if (reader.pos() != section_end) {
    reader.fail("region section size mismatch");
  }

  // Event columns: four bulk array copies.
  const std::uint64_t event_count = reader.u64();
  if (event_count > (1ull << 32)) {
    reader.fail("implausible event count " + std::to_string(event_count));
  }
  const auto n = static_cast<std::size_t>(event_count);
  if (section_sizes[3] != 8 + n * kEventBytes) {
    reader.fail("event section size mismatch");
  }
  const std::size_t times_pos = reader.pos();
  columns.times = read_column<std::uint64_t>(reader, n);
  const std::size_t kinds_pos = reader.pos();
  columns.kinds = read_column<std::uint8_t>(reader, n);
  const std::size_t ids_pos = reader.pos();
  columns.ids = read_column<std::uint32_t>(reader, n);
  columns.values = read_column<double>(reader, n);

  // Per-record validation: chronology, known kinds, ids in range. Errors
  // point at the offending element inside its column.
  std::uint64_t last_time = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (columns.times[i] < last_time) {
      reader.fail("events must be chronological", static_cast<std::int64_t>(i),
                  times_pos + i * 8);
    }
    last_time = columns.times[i];
    switch (columns.kinds[i]) {
      case kRegionEnter:
      case kRegionExit:
        if (columns.ids[i] >= region_count) {
          reader.fail("region id " + std::to_string(columns.ids[i]) +
                          " out of range (have " + std::to_string(region_count) + ")",
                      static_cast<std::int64_t>(i), ids_pos + i * 4);
        }
        break;
      case kMetric:
        if (columns.ids[i] >= metric_count) {
          reader.fail("metric id " + std::to_string(columns.ids[i]) +
                          " out of range (have " + std::to_string(metric_count) + ")",
                      static_cast<std::int64_t>(i), ids_pos + i * 4);
        }
        break;
      default:
        reader.fail("unknown event kind " + std::to_string(columns.kinds[i]),
                    static_cast<std::int64_t>(i), kinds_pos + i);
    }
  }

  // Integrity last, mirroring the v2 reader: structural diagnostics keep
  // their precise positions, and any surviving bit flip is caught here.
  std::uint64_t stored = 0;
  std::memcpy(&stored, buffer.data() + body_size, 8);
  if (stored != fnv1a_lanes(buffer.data(), body_size)) {
    reader.fail("checksum mismatch (file corrupt)",
                n > 0 ? static_cast<std::int64_t>(n - 1) : -1, body_size);
  }

  trace.adopt_columns(std::move(columns));
  return trace;
}

Trace read_body_v4(const std::string& buffer) {
  const std::size_t body_size = buffer.size() - 8;
  // Structure first (precise positions), integrity last — the same parser
  // and checksum pass the mapped reader uses, so both reject identically.
  const format::ParsedTraceV4 parsed = format::parse_trace_v4(buffer.data(), body_size);
  format::verify_checksum_v4(buffer.data(), body_size, parsed.event_count);
  return to_trace(parsed.view());
}

}  // namespace

Trace read_trace(std::istream& in) {
  char magic[8];
  if (!in.read(magic, sizeof magic)) {
    throw IoError("trace: bad magic (not an OTF2-lite file)", 0, -1);
  }
  const bool v4 = std::memcmp(magic, kMagicV4, sizeof magic) == 0;
  if (v4 || std::memcmp(magic, kMagicV3, sizeof magic) == 0) {
    const std::string buffer = read_remaining(in);
    if (buffer.size() < 8) {
      throw IoError("trace: truncated before checksum footer (byte " +
                        std::to_string(buffer.size() + kMagicBytes) + ", record -1)",
                    static_cast<std::int64_t>(buffer.size() + kMagicBytes), -1);
    }
    try {
      return v4 ? read_body_v4(buffer) : read_body_v3(buffer);
    } catch (const IoError&) {
      throw;
    } catch (const Error& e) {
      throw IoError(std::string("trace: invalid record: ") + e.what(),
                    static_cast<std::int64_t>(sizeof magic), -1);
    }
  }
  if (std::memcmp(magic, kMagicV2, sizeof magic) == 0) {
    Reader reader(in);
    // Trace's own mutators (append, define_metric) validate invariants like
    // event chronology; a corrupt byte that violates one must still surface
    // as a position-carrying IoError, not as the mutator's InvalidArgument.
    try {
      return read_body_v2(reader);
    } catch (const IoError&) {
      throw;
    } catch (const Error& e) {
      reader.fail(std::string("invalid record: ") + e.what());
    }
  }
  throw IoError("trace: bad magic (not an OTF2-lite file)", 0, -1);
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("trace: cannot open '" + path + "' for reading");
  }
  return read_trace(in);
}

}  // namespace pwx::trace
