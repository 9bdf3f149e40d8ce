#pragma once

namespace nestpar::simt::log {

/// Verbosity of the shared diagnostic logger. Messages go to stderr so they
/// never perturb the byte-stable stdout the bench suites are compared on.
/// The default level is kWarn: errors and warnings print (matching the
/// ad-hoc `fprintf(stderr, ...)` lines they replaced byte-for-byte), debug
/// stays silent until `--verbose` raises the level.
enum class Level : int {
  kError = 0,  ///< Always printed (fatal or must-see diagnostics).
  kWarn = 1,   ///< Default: suspicious-but-recoverable conditions.
  kDebug = 2,  ///< Progress notes and tracing (`--verbose`).
};

void set_level(Level level);
Level level();
bool enabled(Level level);

/// printf-style emitters. Messages are written verbatim (no prefix, no
/// implicit newline) so routing an existing stderr line through the logger
/// does not change its bytes.
void error(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace nestpar::simt::log
