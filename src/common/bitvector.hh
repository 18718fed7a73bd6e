/**
 * @file
 * SubblockVector: the 32-bit residency bit vector that SILC-FM keeps per
 * 2KB large block (Section III-A).  Bit i set means subblock i of the NM
 * frame currently holds data swapped in from FM.
 */

#ifndef SILC_COMMON_BITVECTOR_HH
#define SILC_COMMON_BITVECTOR_HH

#include <bit>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace silc {

/** Fixed 32-bit subblock residency vector. */
class SubblockVector
{
  public:
    constexpr SubblockVector() = default;
    constexpr explicit SubblockVector(uint32_t raw) : bits_(raw) {}

    /** Vector with every subblock bit set (fully swapped-in block). */
    static constexpr SubblockVector
    all()
    {
        return SubblockVector(~uint32_t(0));
    }

    /** Test bit @p i. */
    bool
    test(uint32_t i) const
    {
        silc_assert(i < kSubblocksPerBlock);
        return (bits_ >> i) & 1u;
    }

    /** Set bit @p i. */
    void
    set(uint32_t i)
    {
        silc_assert(i < kSubblocksPerBlock);
        bits_ |= (1u << i);
    }

    /** Clear bit @p i. */
    void
    clear(uint32_t i)
    {
        silc_assert(i < kSubblocksPerBlock);
        bits_ &= ~(1u << i);
    }

    /** Clear every bit. */
    void clearAll() { bits_ = 0; }

    /** Set every bit. */
    void setAll() { bits_ = ~uint32_t(0); }

    /** Number of set bits. */
    uint32_t count() const { return std::popcount(bits_); }

    /** True when no bit is set. */
    bool none() const { return bits_ == 0; }

    /** True when every bit is set. */
    bool full() const { return bits_ == ~uint32_t(0); }

    /** Raw 32-bit image (for storage in the bit vector history table). */
    uint32_t raw() const { return bits_; }

    /** The raw image as one u32 field. */
    void checkpoint(Blob &b) { b.u32(bits_); }

    bool operator==(const SubblockVector &) const = default;

    /** Render as a 32-character 0/1 string, bit 0 leftmost. */
    std::string
    toString() const
    {
        std::string s(kSubblocksPerBlock, '0');
        for (uint32_t i = 0; i < kSubblocksPerBlock; ++i) {
            if (test(i))
                s[i] = '1';
        }
        return s;
    }

  private:
    uint32_t bits_ = 0;
};

} // namespace silc

#endif // SILC_COMMON_BITVECTOR_HH
