#include "sim/logging.hpp"

#include <cstdio>
#include <mutex>

#include "sim/time.hpp"

namespace trim::sim {

namespace {
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

class StderrLogSink : public LogSink {
 public:
  void write(LogLevel level, double sim_time_s,
             const std::string& message) override {
    std::fprintf(stderr, "[t=%.9fs] [%s] %s\n", sim_time_s, level_name(level),
                 message.c_str());
  }
};

StderrLogSink g_stderr_sink;
LogSink* g_sink = &g_stderr_sink;
// Sweep workers (exp/parallel_runner.hpp) log concurrently; serialize the
// format-and-write so records never interleave mid-line.
std::mutex g_sink_mutex;
}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }
bool log_enabled(LogLevel level) { return level >= g_level; }

LogSink* set_log_sink(LogSink* sink) {
  LogSink* previous = g_sink;
  g_sink = sink != nullptr ? sink : &g_stderr_sink;
  // Report the built-in sink as nullptr so restoring a saved "previous"
  // value round-trips cleanly through the nullptr-means-default contract.
  return previous == &g_stderr_sink ? nullptr : previous;
}

void log_message(LogLevel level, double sim_time_s, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  const std::lock_guard<std::mutex> lock{g_sink_mutex};
  g_sink->write(level, sim_time_s, buf);
}

std::string SimTime::to_string() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9fs", to_seconds());
  return buf;
}

}  // namespace trim::sim
