/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits.
 * warn()   - something is suspicious but simulation can continue.
 */

#ifndef SILC_COMMON_LOGGING_HH
#define SILC_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace silc {

/** Severity classes understood by the log sink. */
enum class LogLevel { Panic, Fatal, Warn };

/**
 * Formats a printf-style message and routes it to the log sink.
 * Exposed mainly so tests can exercise formatting without dying.
 */
std::string logFormat(const char *fmt, ...);

/** printf-style va_list variant of logFormat. */
std::string logFormatV(const char *fmt, va_list args);

/**
 * Emit @p msg at @p level without terminating.  Thread-safe: the sink is
 * mutex-guarded so messages from concurrent simulation runs never
 * interleave mid-line.
 */
void logEmit(LogLevel level, const std::string &msg);

/** Number of warnings emitted so far (useful in tests). */
uint64_t warnCount();

/**
 * Attach a tag (e.g. "mcf/silcfm") to every message this thread emits,
 * so output from parallel runs is attributable.  Empty clears the tag.
 */
void logSetThreadTag(std::string tag);

/** The calling thread's current log tag ("" when unset). */
const std::string &logThreadTag();

/** Internal invariant violated: print and abort(). */
[[noreturn]] void panic(const char *fmt, ...);

/** User/config error: print and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...);

/** Suspicious but survivable condition. */
void warn(const char *fmt, ...);

/** panic() with a standard message unless @p cond holds. */
#define silc_assert(cond)                                                   \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::silc::panic("assertion '%s' failed at %s:%d", #cond,          \
                          __FILE__, __LINE__);                              \
        }                                                                   \
    } while (0)

} // namespace silc

#endif // SILC_COMMON_LOGGING_HH
