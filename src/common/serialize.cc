#include "common/serialize.hh"

#include "common/logging.hh"

namespace silc {

void
Blob::str(std::string &s)
{
    uint64_t n = s.size();
    le(n);
    if (!reading()) {
        out_.insert(out_.end(), s.begin(), s.end());
        return;
    }
    const uint8_t *b = need(static_cast<size_t>(n));
    s.assign(reinterpret_cast<const char *>(b), static_cast<size_t>(n));
}

void
Blob::section(const char tag[5])
{
    if (!reading()) {
        out_.insert(out_.end(), tag, tag + 4);
        return;
    }
    const uint8_t *b = need(4);
    if (std::memcmp(b, tag, 4) != 0) {
        fatal("checkpoint section mismatch at offset %zu: expected '%s', "
              "found '%c%c%c%c'", pos_ - 4, tag, b[0], b[1], b[2], b[3]);
    }
}

void
Blob::size(uint64_t n, const char *what)
{
    uint64_t held = n;
    le(held);
    if (held != n) {
        fatal("checkpoint %s mismatch: blob has %llu, system has %llu",
              what, static_cast<unsigned long long>(held),
              static_cast<unsigned long long>(n));
    }
}

void
Blob::done() const
{
    if (reading() && pos_ != in_->size()) {
        fatal("checkpoint blob has %zu trailing bytes (consumed %zu of "
              "%zu)", in_->size() - pos_, pos_, in_->size());
    }
}

void
Blob::truncated(size_t n) const
{
    fatal("checkpoint blob truncated: need %zu bytes at offset %zu of %zu",
          n, pos_, in_->size());
}

} // namespace silc
