// Minimal thread-safe structured logging.
//
// Logging is off by default (benchmarks must not pay for it); tests and
// examples opt in via set_log_level.  Format: "LEVEL ts [tag] message".
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace cmh {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

namespace detail {
void log_line(LogLevel level, std::string_view tag, const std::string& msg);
}

/// Streaming log statement: LOG(kInfo, "controller") << "acquired " << r;
class LogStream {
 public:
  LogStream(LogLevel level, std::string_view tag) : level_(level), tag_(tag) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (level_ >= log_level()) detail::log_line(level_, tag_, out_.str());
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (level_ >= log_level()) out_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view tag_;
  std::ostringstream out_;
};

namespace detail {
/// Turns a finished stream expression into void so it can be the second
/// arm of CMH_LOG's conditional.  `&` binds looser than `<<`, so the whole
/// `<<` chain is evaluated first.
struct LogVoidify {
  void operator&(const LogStream& /*stream*/) const {}
};
}  // namespace detail

/// The level is checked before the LogStream (and its ostringstream) is
/// built, so a disabled statement costs one relaxed load and evaluates
/// none of its `<<` operands.  The expression form is a single statement,
/// safe as the body of an unbraced if/else.
#define CMH_LOG(level, tag)                                 \
  (::cmh::LogLevel::level < ::cmh::log_level())             \
      ? (void)0                                             \
      : ::cmh::detail::LogVoidify() &                       \
            ::cmh::LogStream(::cmh::LogLevel::level, (tag))

}  // namespace cmh
