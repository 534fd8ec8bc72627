#include "obs/trace_export.hpp"

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/run_report.hpp"
#include "sim/logging.hpp"

namespace trim::obs {

bool trace_enabled() {
  const char* env = std::getenv("TRIM_TRACE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

std::string trace_dir() {
  const char* env = std::getenv("TRIM_TRACE");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "1") == 0) {
    return report_output_dir();
  }
  return env;
}

std::string write_trace_jsonl(const std::string& name,
                              const std::string& body) {
  static std::atomic<std::uint32_t> seq{0};
  const std::uint32_t n = seq.fetch_add(1, std::memory_order_relaxed);
  const std::string dir = trace_dir();
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "_%u.jsonl", n);
  const std::string path = dir + "/TRACE_" + name + suffix;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    sim::log_message(sim::LogLevel::kWarn, 0.0,
                     "trace export: cannot open %s for writing", path.c_str());
    return {};
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) {
    sim::log_message(sim::LogLevel::kWarn, 0.0,
                     "trace export: short write to %s", path.c_str());
    return {};
  }
  return path;
}

namespace {

// Minimal per-line field extraction. The writer is ours, so the grammar
// is narrow: {"key":value,...} with string, number, and bool values and
// no nesting. Still tolerant of unknown keys and reordered fields.
bool find_value(std::string_view line, std::string_view key,
                std::string_view& out) {
  const std::string needle = std::string{"\""}.append(key).append("\":");
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  std::size_t i = pos + needle.size();
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size()) return false;
  std::size_t end = i;
  if (line[i] == '"') {
    end = line.find('"', i + 1);
    if (end == std::string_view::npos) return false;
    out = line.substr(i + 1, end - i - 1);
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    out = line.substr(i, end - i);
  }
  return true;
}

bool get_num(std::string_view line, std::string_view key, double& out) {
  std::string_view v;
  if (!find_value(line, key, v)) return false;
  out = std::strtod(std::string{v}.c_str(), nullptr);
  return true;
}

bool get_u32(std::string_view line, std::string_view key, std::uint32_t& out) {
  double d = 0.0;
  if (!get_num(line, key, d)) return false;
  out = static_cast<std::uint32_t>(d);
  return true;
}

bool get_str(std::string_view line, std::string_view key, std::string& out) {
  std::string_view v;
  if (!find_value(line, key, v)) return false;
  out.assign(v);
  return true;
}

bool get_bool(std::string_view line, std::string_view key, bool& out) {
  std::string_view v;
  if (!find_value(line, key, v)) return false;
  out = v == "true";
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::vector<TraceLine> parse_trace_jsonl(std::string_view text) {
  std::vector<TraceLine> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    TraceLine t;
    if (get_str(line, "span", t.span)) {
      t.is_span = true;
      get_u32(line, "id", t.id);
      get_u32(line, "parent", t.parent);
      get_u32(line, "flow", t.flow);
      get_num(line, "t0", t.t0);
      get_num(line, "t1", t.t1);
      get_num(line, "a", t.a);
      get_num(line, "b", t.b);
      get_bool(line, "complete", t.complete);
      out.push_back(std::move(t));
    } else if (get_str(line, "kind", t.kind)) {
      t.is_span = false;
      get_num(line, "t", t.t);
      get_u32(line, "subject", t.subject);
      get_num(line, "a", t.a);
      get_num(line, "b", t.b);
      out.push_back(std::move(t));
    }
    // Lines with neither "span" nor "kind" are skipped.
  }
  return out;
}

std::string to_chrome_trace(
    const std::vector<std::pair<std::string, std::vector<TraceLine>>>& docs) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& record) {
    out += first ? "\n" : ",\n";
    first = false;
    out += record;
  };
  for (std::size_t pid = 0; pid < docs.size(); ++pid) {
    const auto& [name, lines] = docs[pid];
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"args\":{\"name\":\"" + json_escape(name) +
         "\"}}");
    for (const auto& t : lines) {
      if (t.is_span) {
        // Times are seconds in the JSONL, microseconds in Chrome traces.
        const double ts = t.t0 * 1e6;
        const double dur = (t.t1 - t.t0) * 1e6;
        emit("{\"name\":\"" + json_escape(t.span) +
             "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" + num(ts) +
             ",\"dur\":" + num(dur < 0.0 ? 0.0 : dur) +
             ",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(t.flow) + ",\"args\":{\"id\":" +
             std::to_string(t.id) + ",\"parent\":" + std::to_string(t.parent) +
             ",\"a\":" + num(t.a) + ",\"b\":" + num(t.b) +
             ",\"complete\":" + (t.complete ? "true" : "false") + "}}");
      } else {
        emit("{\"name\":\"" + json_escape(t.kind) +
             "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
             num(t.t * 1e6) + ",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(t.subject) +
             ",\"args\":{\"a\":" + num(t.a) + ",\"b\":" + num(t.b) + "}}");
      }
    }
  }
  out += first ? "" : "\n";
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace trim::obs
