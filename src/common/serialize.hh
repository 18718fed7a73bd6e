/**
 * @file
 * In-memory checkpoint blob serialization.
 *
 * The sampling subsystem (src/sample/) snapshots simulator state into a
 * flat byte buffer so one functional-warming pass can yield N
 * checkpoints that replay independently (and in parallel) later.
 * BlobWriter appends typed little-endian fields; BlobReader consumes
 * them in the same order.  There is no self-describing framing beyond
 * four-byte section tags: writer and reader are versioned together via
 * the 'SILC' header section (see sample/checkpoint.cc), which is enough
 * for an in-process, same-binary format.
 *
 * Readers are bounds-checked: a truncated or misordered blob is a
 * checkpoint-corruption bug and fatal()s with the offending offset
 * rather than returning garbage state.
 */

#ifndef SILC_COMMON_SERIALIZE_HH
#define SILC_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace silc {

/** Append-only typed writer over a growable byte buffer. */
class BlobWriter
{
  public:
    void putU8(uint8_t v) { raw(&v, 1); }
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putF64(double v);
    void putStr(const std::string &s);

    /**
     * Write a four-character section marker (e.g. "TRCE").  Cheap
     * structural redundancy: the reader's expect() catches writer/reader
     * drift at the section boundary instead of fields later.
     */
    void section(const char tag[5]);

    const std::vector<uint8_t> &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

    /** Hand over the buffer without copying; the writer is left empty. */
    std::vector<uint8_t> take() { return std::exchange(buf_, {}); }

  private:
    void raw(const void *p, size_t n);

    std::vector<uint8_t> buf_;
};

/**
 * Sequential typed reader over a checkpoint blob.  All reads are
 * bounds-checked and fatal() on truncation; done() verifies the whole
 * blob was consumed (a partial read means the schemas diverged).
 */
class BlobReader
{
  public:
    explicit BlobReader(const std::vector<uint8_t> &buf) : buf_(buf) {}

    uint8_t getU8();
    uint32_t getU32();
    uint64_t getU64();
    int64_t getI64() { return static_cast<int64_t>(getU64()); }
    bool getBool() { return getU8() != 0; }
    double getF64();
    std::string getStr();

    /** Consume a section marker, fatal()ing if it is not @p tag. */
    void expect(const char tag[5]);

    size_t offset() const { return pos_; }
    size_t remaining() const { return buf_.size() - pos_; }

    /** fatal() unless every byte of the blob has been consumed. */
    void done() const;

  private:
    const uint8_t *need(size_t n);

    const std::vector<uint8_t> &buf_;
    size_t pos_ = 0;
};

} // namespace silc

#endif // SILC_COMMON_SERIALIZE_HH
