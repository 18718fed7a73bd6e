#include "common/logging.hh"

#include <atomic>
#include <cstdarg>
#include <mutex>
#include <vector>

namespace silc {

namespace {

std::atomic<uint64_t> warn_counter{0};

/** Serialises writes to stderr, which parallel runs share. */
std::mutex sink_mutex;

thread_local std::string thread_tag;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic: return "panic";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Warn: return "warn";
    }
    return "?";
}

} // namespace

std::string
logFormatV(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data());
}

std::string
logFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = logFormatV(fmt, args);
    va_end(args);
    return out;
}

void
logEmit(LogLevel level, const std::string &msg)
{
    if (level == LogLevel::Warn)
        warn_counter.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sink_mutex);
    if (thread_tag.empty()) {
        std::fprintf(stderr, "%s: %s\n", levelName(level), msg.c_str());
    } else {
        std::fprintf(stderr, "%s: [%s] %s\n", levelName(level),
                     thread_tag.c_str(), msg.c_str());
    }
}

uint64_t
warnCount()
{
    return warn_counter.load(std::memory_order_relaxed);
}

void
logSetThreadTag(std::string tag)
{
    thread_tag = std::move(tag);
}

const std::string &
logThreadTag()
{
    return thread_tag;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    logEmit(LogLevel::Panic, logFormatV(fmt, args));
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    logEmit(LogLevel::Fatal, logFormatV(fmt, args));
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    logEmit(LogLevel::Warn, logFormatV(fmt, args));
    va_end(args);
}

} // namespace silc
