#include "common/logging.h"

#include <gtest/gtest.h>

#include <string>

namespace cmh {
namespace {

/// Restores the process-wide log level when a test ends.
class LogLevelGuard {
 public:
  explicit LogLevelGuard(LogLevel level) : saved_(log_level()) {
    set_log_level(level);
  }
  ~LogLevelGuard() { set_log_level(saved_); }
  LogLevelGuard(const LogLevelGuard&) = delete;
  LogLevelGuard& operator=(const LogLevelGuard&) = delete;

 private:
  LogLevel saved_;
};

int counted(int& calls) {
  ++calls;
  return calls;
}

TEST(Logging, DisabledStatementDoesNotEvaluateOperands) {
  const LogLevelGuard guard(LogLevel::kWarn);
  int calls = 0;
  testing::internal::CaptureStderr();
  CMH_LOG(kDebug, "test") << "value " << counted(calls);
  CMH_LOG(kInfo, "test") << counted(calls) << counted(calls);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(calls, 0);
}

TEST(Logging, EnabledStatementPrints) {
  const LogLevelGuard guard(LogLevel::kInfo);
  int calls = 0;
  testing::internal::CaptureStderr();
  CMH_LOG(kWarn, "tag") << "value " << counted(calls);
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 1);
  EXPECT_NE(out.find("WARN"), std::string::npos) << out;
  EXPECT_NE(out.find("[tag] value 1"), std::string::npos) << out;
}

TEST(Logging, SafeAsUnbracedIfElseBody) {
  const LogLevelGuard guard(LogLevel::kOff);
  int then_calls = 0;
  int else_branch = 0;
  for (const bool cond : {true, false}) {
    // The macro must be one expression statement: the else below has to
    // bind to this if, not to anything inside the macro.
    if (cond)
      CMH_LOG(kError, "test") << counted(then_calls);
    else
      ++else_branch;
  }
  EXPECT_EQ(then_calls, 0);
  EXPECT_EQ(else_branch, 1);
}

}  // namespace
}  // namespace cmh
