/**
 * @file
 * Minimal JSON emission helpers for sim::ResultWriter and the perfbench
 * pass driver.  Deliberately not a JSON library: the repo emits JSON but
 * never parses it, so two formatting functions with strict determinism
 * guarantees (shortest round-trip doubles, locale-free) are all that is
 * needed — output must stay byte-identical across runs and thread
 * counts.
 */

#ifndef SILC_TELEMETRY_JSON_HH
#define SILC_TELEMETRY_JSON_HH

#include <string>
#include <string_view>

namespace silc {
namespace telemetry {

/** @p s with JSON string escaping applied, without surrounding quotes. */
std::string jsonEscape(std::string_view s);

/** Quoted, escaped JSON string literal for @p s. */
std::string jsonString(std::string_view s);

/**
 * Shortest round-trip decimal rendering of @p v (std::to_chars), the
 * same bytes for the same bits on every run.  Non-finite values have no
 * JSON representation and render as null.
 */
std::string jsonDouble(double v);

} // namespace telemetry
} // namespace silc

#endif // SILC_TELEMETRY_JSON_HH
