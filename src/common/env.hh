/**
 * @file
 * Strictly-validated environment knob parsing shared by the thread-count
 * knob (SILC_THREADS), the scale and seed knobs and the on/off flags,
 * plus the count check fuzz_check applies to its flags.  A lax parser
 * reads "4abc" as 4 or "1k" as 1024, which turns a typo into a quietly
 * different experiment; here anything but a clean positive decimal
 * integer is a fatal error naming the variable and the offending value.
 */

#ifndef SILC_COMMON_ENV_HH
#define SILC_COMMON_ENV_HH

#include <cstdint>

namespace silc {

/**
 * Parse @p text as a positive decimal count.  fatal()s, naming @p what
 * (a variable or flag name) and the text, when it is empty, zero,
 * negative, non-numeric, has leading or trailing characters (so no
 * size suffixes and no hex), or exceeds @p max_value.
 */
uint64_t parsePositiveCount(const char *what, const char *text,
                            uint64_t max_value = UINT64_MAX);

/**
 * Read a positive decimal count from environment variable @p name.
 *
 * Returns @p fallback when the variable is unset; otherwise the value
 * is checked as by parsePositiveCount().
 */
uint64_t envPositiveCount(const char *name, uint64_t fallback,
                          uint64_t max_value = UINT64_MAX);

/**
 * Thread-count flavour of envPositiveCount(): bounds the value to a
 * sanity cap of 1024 threads so a stray SILC_THREADS=100000 fails fast
 * instead of spawning an unusable process.
 */
unsigned envThreadCount(const char *name, unsigned fallback);

/**
 * Capacity knob in mebibytes: reads a positive MiB count (validated
 * like envPositiveCount) and returns it converted to BYTES.
 *
 * The conversion is why this helper exists: `envU64(name) << 20`
 * silently wraps for values above 2^44 MiB and accepts 0, handing the
 * simulator a zero-byte device (divide-by-zero in set math).  Values
 * are capped at 1 TiB (1048576 MiB) — far above any paper
 * configuration — so a garbled value fails fast with the variable
 * name in the message instead of attempting a 16-exabyte allocation.
 *
 * @param fallback_bytes returned as-is (NOT shifted) when unset.
 */
uint64_t envMebibytes(const char *name, uint64_t fallback_bytes);

/**
 * On/off knob: exactly "0" or "1".  Returns @p fallback when unset;
 * any other value (including "2", "yes" or "") is a fatal error naming
 * the variable.
 */
bool envFlag(const char *name, bool fallback);

} // namespace silc

#endif // SILC_COMMON_ENV_HH
