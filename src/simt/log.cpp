#include "src/simt/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>

namespace nestpar::simt::log {

namespace {

std::atomic<int>& level_flag() {
  static std::atomic<int> level{static_cast<int>(Level::kWarn)};
  return level;
}

void vemit(Level lvl, const char* fmt, std::va_list args) {
  if (!enabled(lvl)) return;
  std::vfprintf(stderr, fmt, args);
}

}  // namespace

void set_level(Level level) {
  level_flag().store(static_cast<int>(level), std::memory_order_relaxed);
}

Level level() {
  return static_cast<Level>(level_flag().load(std::memory_order_relaxed));
}

bool enabled(Level lvl) {
  return static_cast<int>(lvl) <=
         level_flag().load(std::memory_order_relaxed);
}

#define NESTPAR_LOG_BODY(lvl)    \
  std::va_list args;             \
  va_start(args, fmt);           \
  vemit(lvl, fmt, args);         \
  va_end(args)

void error(const char* fmt, ...) { NESTPAR_LOG_BODY(Level::kError); }
void warn(const char* fmt, ...) { NESTPAR_LOG_BODY(Level::kWarn); }
void debug(const char* fmt, ...) { NESTPAR_LOG_BODY(Level::kDebug); }

#undef NESTPAR_LOG_BODY

}  // namespace nestpar::simt::log
