// Minimal leveled logger. Components log through this so experiments can be
// run quietly (benches) or verbosely (debugging a localization run).
#pragma once

#include <cstdint>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace sdnprobe::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// Global log threshold; messages below it are discarded. Defaults to kWarn so
// library users are not spammed unless they opt in. The default can be
// overridden without recompiling via the SDNPROBE_LOG environment variable
// ("debug" | "info" | "warn" | "error" | "off", case-insensitive), read once
// at process start; set_log_threshold() still wins afterwards.
LogLevel log_threshold();
void set_log_threshold(LogLevel level);

// Parses a level name ("debug"/"info"/"warn"/"warning"/"error"/"off",
// case-insensitive); nullopt on anything else. Exposed for tests and CLIs.
std::optional<LogLevel> parse_log_level(std::string_view name);

// Small sequential id of the calling thread (1 = first thread to log or
// trace). Pool workers interleave on stderr; the per-line id is what
// makes those interleavings attributable. Telemetry span records reuse the
// same ordinal so spans and log lines from one thread correlate.
std::uint64_t thread_ordinal();

// Renders the log-line prefix for one (level, file, line) triple at the
// current instant: "[LEVEL HH:MM:SS.mmm tNN] file.cc:42: ". Exposed so
// tests can pin the format without scraping stderr.
std::string format_log_prefix(LogLevel level, const char* file, int line);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace sdnprobe::util

#define SDNPROBE_LOG(level)                                          \
  ::sdnprobe::util::internal::LogMessage(                            \
      ::sdnprobe::util::LogLevel::k##level, __FILE__, __LINE__)

#define LOG_DEBUG SDNPROBE_LOG(Debug)
#define LOG_INFO SDNPROBE_LOG(Info)
#define LOG_WARN SDNPROBE_LOG(Warn)
#define LOG_ERROR SDNPROBE_LOG(Error)
