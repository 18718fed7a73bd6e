#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace silc {

uint64_t
parsePositiveCount(const char *what, const char *text, uint64_t max_value)
{
    // Reject empty and leading junk up front: strtoull would skip
    // whitespace and accept a leading '-' by wrapping, both of which we
    // want to be errors for a count.
    if (*text == '\0' || !std::isdigit(static_cast<unsigned char>(*text)))
        fatal("%s must be a positive integer, got '%s'", what, text);
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text, &end, 10);
    if (errno == ERANGE || (end != nullptr && *end != '\0'))
        fatal("%s must be a positive integer, got '%s'", what, text);
    if (n == 0)
        fatal("%s must be positive, got '%s' (use 1 for sequential)",
              what, text);
    if (n > max_value)
        fatal("%s=%s exceeds the supported maximum of %llu", what, text,
              static_cast<unsigned long long>(max_value));
    return static_cast<uint64_t>(n);
}

uint64_t
envPositiveCount(const char *name, uint64_t fallback, uint64_t max_value)
{
    const char *v = std::getenv(name);
    return v == nullptr ? fallback
                        : parsePositiveCount(name, v, max_value);
}

unsigned
envThreadCount(const char *name, unsigned fallback)
{
    return static_cast<unsigned>(envPositiveCount(name, fallback, 1024));
}

uint64_t
envMebibytes(const char *name, uint64_t fallback_bytes)
{
    if (std::getenv(name) == nullptr)
        return fallback_bytes;
    // 1 TiB cap: any larger count is a typo, and counts above 2^44
    // would overflow the byte conversion outright.
    const uint64_t mib = envPositiveCount(name, 0, 1024ULL * 1024ULL);
    return mib << 20;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    if (std::strcmp(v, "0") == 0)
        return false;
    if (std::strcmp(v, "1") == 0)
        return true;
    fatal("%s must be 0 or 1, got '%s'", name, v);
}

} // namespace silc
