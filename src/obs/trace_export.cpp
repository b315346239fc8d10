#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace pwx::obs {

namespace {

Json attrs_to_json(const std::vector<SpanAttr>& attrs) {
  Json::Object out;
  for (const SpanAttr& attr : attrs) {
    out[attr.key] = Json(attr.value);
  }
  return Json(std::move(out));
}

std::uint64_t parse_hex_id(const Json& value, std::size_t line_no) {
  const std::string& text = value.as_string();
  char* end = nullptr;
  const std::uint64_t id = std::strtoull(text.c_str(), &end, 16);
  if (end == text.c_str() || *end != '\0') {
    throw IoError("span jsonl line " + std::to_string(line_no) +
                  ": bad id '" + text + "'");
  }
  return id;
}

}  // namespace

Json chrome_trace_json(const std::vector<SpanRecord>& records) {
  Json::Array events;
  events.reserve(records.size());
  for (const SpanRecord& record : records) {
    Json::Object args;
    args["trace_id"] = Json(format_span_id(record.trace_id));
    args["span_id"] = Json(format_span_id(record.span_id));
    if (record.parent_id != 0) {
      args["parent_id"] = Json(format_span_id(record.parent_id));
    }
    for (const SpanAttr& attr : record.attrs) {
      args[attr.key] = Json(attr.value);
    }
    Json::Object event;
    event["ph"] = Json("X");
    event["cat"] = Json("pwx");
    event["name"] = Json(record.name);
    event["pid"] = Json(1);
    event["tid"] = Json(static_cast<std::size_t>(record.thread));
    event["ts"] = Json(record.start_s * 1e6);
    event["dur"] = Json(record.duration_s() * 1e6);
    event["args"] = Json(std::move(args));
    events.emplace_back(std::move(event));
  }
  Json::Object doc;
  doc["displayTimeUnit"] = Json("ms");
  doc["traceEvents"] = Json(std::move(events));
  return Json(std::move(doc));
}

std::string span_to_jsonl_line(const SpanRecord& record) {
  Json::Object line;
  line["event"] = Json("span");
  line["trace"] = Json(format_span_id(record.trace_id));
  line["span"] = Json(format_span_id(record.span_id));
  if (record.parent_id != 0) {
    line["parent"] = Json(format_span_id(record.parent_id));
  }
  line["name"] = Json(record.name);
  line["start_s"] = Json(record.start_s);
  line["dur_s"] = Json(record.duration_s());
  line["thread"] = Json(static_cast<std::size_t>(record.thread));
  if (!record.attrs.empty()) {
    line["attrs"] = attrs_to_json(record.attrs);
  }
  return Json(std::move(line)).dump(-1);
}

std::vector<SpanRecord> parse_span_jsonl(std::string_view text) {
  std::vector<SpanRecord> records;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    Json value;
    try {
      value = Json::parse(line);
    } catch (const Error& err) {
      throw IoError("span jsonl line " + std::to_string(line_no) + ": " +
                    err.what());
    }
    const Json* event = value.find("event");
    if (event == nullptr || event->as_string() != "span") {
      continue;  // interleaved metrics/log lines are legal in a trace stream
    }
    SpanRecord record;
    record.trace_id = parse_hex_id(value.at("trace"), line_no);
    record.span_id = parse_hex_id(value.at("span"), line_no);
    if (const Json* parent = value.find("parent")) {
      record.parent_id = parse_hex_id(*parent, line_no);
    }
    record.name = value.at("name").as_string();
    record.start_s = value.at("start_s").as_number();
    record.end_s = record.start_s + value.at("dur_s").as_number();
    if (const Json* thread = value.find("thread")) {
      record.thread = static_cast<std::uint32_t>(thread->as_number());
    }
    if (const Json* attrs = value.find("attrs")) {
      for (const auto& [key, attr_value] : attrs->as_object()) {
        record.attrs.push_back(SpanAttr{key, attr_value.as_string()});
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<SpanAttribution> attribute_latency(
    const std::vector<SpanRecord>& records) {
  // Sum direct-children time per parent span so self = total - children.
  std::unordered_map<std::uint64_t, double> child_time;
  child_time.reserve(records.size());
  for (const SpanRecord& record : records) {
    if (record.parent_id != 0) {
      child_time[record.parent_id] += record.duration_s();
    }
  }
  std::unordered_map<std::string, SpanAttribution> by_name;
  for (const SpanRecord& record : records) {
    SpanAttribution& cell = by_name[record.name];
    cell.name = record.name;
    cell.calls += 1;
    const double duration = record.duration_s();
    cell.total_s += duration;
    cell.max_s = std::max(cell.max_s, duration);
    const auto children = child_time.find(record.span_id);
    const double self =
        duration - (children == child_time.end() ? 0.0 : children->second);
    cell.self_s += std::max(self, 0.0);
  }
  std::vector<SpanAttribution> out;
  out.reserve(by_name.size());
  for (auto& [name, cell] : by_name) {
    out.push_back(std::move(cell));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanAttribution& a, const SpanAttribution& b) {
              if (a.self_s != b.self_s) {
                return a.self_s > b.self_s;
              }
              return a.name < b.name;
            });
  return out;
}

void print_attribution_table(const std::vector<SpanAttribution>& attribution,
                             std::ostream& out) {
  double total_self = 0.0;
  for (const SpanAttribution& cell : attribution) {
    total_self += cell.self_s;
  }
  TablePrinter table(
      {"span", "calls", "total [s]", "self [s]", "self %", "mean [s]", "max [s]"});
  for (const SpanAttribution& cell : attribution) {
    const double mean = cell.calls == 0 ? 0.0 : cell.total_s / cell.calls;
    const double pct = total_self <= 0.0 ? 0.0 : 100.0 * cell.self_s / total_self;
    table.row({cell.name, std::to_string(cell.calls),
               format_double(cell.total_s, 6), format_double(cell.self_s, 6),
               format_double(pct, 1), format_double(mean, 6),
               format_double(cell.max_s, 6)});
  }
  table.print(out);
}

std::vector<SpanStats> span_path_profile(const std::vector<SpanRecord>& records) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(records.size());
  for (const SpanRecord& record : records) {
    by_id.emplace(record.span_id, &record);
  }
  std::map<std::string, SpanStats> by_path;
  for (const SpanRecord& record : records) {
    // Prepend ancestors while they ran on this thread; the hop bound stops a
    // parent cycle in malformed input.
    std::string path = record.name;
    const SpanRecord* at = &record;
    for (std::size_t hop = 0; hop < records.size() && at->parent_id != 0; ++hop) {
      const auto parent = by_id.find(at->parent_id);
      if (parent == by_id.end() || parent->second->thread != record.thread) {
        break;
      }
      at = parent->second;
      path = at->name + '/' + path;
    }
    SpanStats& cell = by_path[path];
    const double duration = record.duration_s();
    cell.min_s = cell.calls == 0 ? duration : std::min(cell.min_s, duration);
    cell.max_s = cell.calls == 0 ? duration : std::max(cell.max_s, duration);
    cell.calls += 1;
    cell.total_s += duration;
  }
  std::vector<SpanStats> out;
  out.reserve(by_path.size());
  for (auto& [path, cell] : by_path) {
    cell.path = path;
    out.push_back(std::move(cell));
  }
  return out;
}

Json span_profile_to_json(const std::vector<SpanStats>& profile) {
  Json::Array out;
  for (const SpanStats& span : profile) {
    Json::Object entry;
    entry["path"] = Json(span.path);
    entry["calls"] = Json(span.calls);
    entry["total_s"] = Json(span.total_s);
    entry["min_s"] = Json(span.min_s);
    entry["max_s"] = Json(span.max_s);
    out.push_back(Json(std::move(entry)));
  }
  return Json(std::move(out));
}

void print_span_table(const std::vector<SpanStats>& profile, std::ostream& out) {
  TablePrinter table({"span", "calls", "total [s]", "mean [s]", "min [s]", "max [s]"});
  for (const SpanStats& span : profile) {
    const auto depth =
        static_cast<std::size_t>(std::count(span.path.begin(), span.path.end(), '/'));
    const std::size_t slash = span.path.rfind('/');
    const double mean =
        span.calls > 0 ? span.total_s / static_cast<double>(span.calls) : 0.0;
    table.row({std::string(depth * 2, ' ') +
                   (slash == std::string::npos ? span.path : span.path.substr(slash + 1)),
               std::to_string(span.calls), format_double(span.total_s, 6),
               format_double(mean, 6), format_double(span.min_s, 6),
               format_double(span.max_s, 6)});
  }
  table.print(out);
}

}  // namespace pwx::obs
