/**
 * @file
 * In-memory checkpoint blob serialization.
 *
 * The sampling subsystem (src/sample/) snapshots simulator state into a
 * flat byte buffer so one functional-warming pass can yield N
 * checkpoints that replay independently (and in parallel) later.
 *
 * A Blob is one pass over such a buffer, and every checkpointed
 * component lists its fields once, in one checkpoint(Blob &) method.  A
 * default-constructed Blob writes: each field call appends its argument
 * as a little-endian field.  Blob(bytes) reads: the same call assigns
 * the next field to its argument.  So one field list is both the writer
 * and the reader, and the two cannot drift apart.  There is no
 * self-describing framing beyond four-byte section tags; the format is
 * versioned as a whole by the 'SILC' header section (see
 * System::checkpoint), which is enough for an in-process, same-binary
 * format.
 *
 * Reads are bounds-checked: a truncated or misordered blob is a
 * checkpoint-corruption bug and fatal()s with the offending offset
 * rather than returning garbage state.
 */

#ifndef SILC_COMMON_SERIALIZE_HH
#define SILC_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace silc {

/** One writing or reading pass over a checkpoint blob. */
class Blob
{
  public:
    /** A writing pass over an empty buffer. */
    Blob() = default;

    /** A reading pass over @p bytes, which must outlive the Blob. */
    explicit Blob(const std::vector<uint8_t> &bytes) : in_(&bytes) {}
    explicit Blob(std::vector<uint8_t> &&) = delete;

    /** True for a reading pass: field calls assign instead of append. */
    bool reading() const { return in_ != nullptr; }

    void u8(uint8_t &v) { le(v); }
    void u32(uint32_t &v) { le(v); }
    void u64(uint64_t &v) { le(v); }

    void
    i64(int64_t &v)
    {
        uint64_t u = static_cast<uint64_t>(v);
        le(u);
        v = static_cast<int64_t>(u);
    }

    void
    flag(bool &v)
    {
        uint8_t u = v ? 1 : 0;
        le(u);
        v = u != 0;
    }

    void
    f64(double &v)
    {
        static_assert(sizeof(double) == sizeof(uint64_t),
                      "IEEE-754 doubles");
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        le(bits);
        std::memcpy(&v, &bits, sizeof(v));
    }

    /** A u64 length, then the characters. */
    void str(std::string &s);

    /**
     * A four-character section marker (e.g. "TRCE").  Cheap structural
     * redundancy: a reader out of step with the blob dies at the section
     * boundary instead of fields later.
     */
    void section(const char tag[5]);

    /**
     * A u64 count that must equal @p n: written as is, and on reading
     * fatal() naming @p what unless the blob holds @p n.
     */
    void size(uint64_t n, const char *what);

    /** size(v.size(), what), then every element of @p v. */
    template <typename T>
    void
    items(std::vector<T> &v, const char *what)
    {
        size(v.size(), what);
        // Indexed, not range-for: gcc 12 with LTO reads a range-for
        // inlined over a small vector as writing past its end
        // (-Wstringop-overflow).
        for (size_t i = 0; i < v.size(); ++i)
            le(v[i]);
    }

    /** On reading, fatal() unless every byte of the blob was consumed
     *  (a partial read means the format diverged). */
    void done() const;

    /** The bytes written, or those being read. */
    const std::vector<uint8_t> &bytes() const
    {
        return in_ != nullptr ? *in_ : out_;
    }

    /** Hand over the written buffer without copying. */
    std::vector<uint8_t> take() { return std::exchange(out_, {}); }

  private:
    /** An unsigned field of sizeof(T) bytes, little-endian. */
    template <typename T>
    void
    le(T &v)
    {
        static_assert(std::is_unsigned_v<T>, "unsigned fields only");
        if (in_ != nullptr) {
            const uint8_t *b = need(sizeof(T));
            T x = 0;
            for (size_t i = 0; i < sizeof(T); ++i)
                x = static_cast<T>(x | static_cast<T>(b[i]) << (8 * i));
            v = x;
        } else {
            uint8_t b[sizeof(T)];
            for (size_t i = 0; i < sizeof(T); ++i)
                b[i] = static_cast<uint8_t>(v >> (8 * i));
            out_.insert(out_.end(), b, b + sizeof(T));
        }
    }

    /** The next @p n bytes being read; fatal() past the end. */
    const uint8_t *
    need(size_t n)
    {
        if (n > in_->size() - pos_)
            truncated(n);
        const uint8_t *p = in_->data() + pos_;
        pos_ += n;
        return p;
    }

    [[noreturn]] void truncated(size_t n) const;

    std::vector<uint8_t> out_;
    const std::vector<uint8_t> *in_ = nullptr;
    size_t pos_ = 0;
};

} // namespace silc

#endif // SILC_COMMON_SERIALIZE_HH
