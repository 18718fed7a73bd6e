/**
 * @file
 * Fundamental scalar types and address-geometry constants shared by every
 * subsystem of the SILC-FM reproduction.
 *
 * The paper (SILC-FM, HPCA 2017, Section II) fixes two granularities:
 * a "subblock" (or small block) is 64B of contiguous address space and a
 * "large block" (page) is 2KB.  All remapping metadata is kept per large
 * block while data movement happens per subblock.
 */

#ifndef SILC_COMMON_TYPES_HH
#define SILC_COMMON_TYPES_HH

#include <cstdint>
#include <cstddef>

namespace silc {

/** Global simulation time, measured in CPU cycles (3.2 GHz by default). */
using Tick = uint64_t;

/** A physical or virtual byte address. */
using Addr = uint64_t;

/** An index of a CPU core. */
using CoreId = uint32_t;

/** Sentinel for "no tick scheduled". */
constexpr Tick kTickNever = ~Tick(0);

/** Sentinel for an invalid address. */
constexpr Addr kAddrInvalid = ~Addr(0);

/** Size of a subblock (small block) in bytes; also the cache line size. */
constexpr uint64_t kSubblockSize = 64;

/** Size of a large block (page) in bytes. */
constexpr uint64_t kLargeBlockSize = 2048;

/** Number of subblocks within a large block (32 in the paper). */
constexpr uint32_t kSubblocksPerBlock =
    static_cast<uint32_t>(kLargeBlockSize / kSubblockSize);

/** log2 of the subblock size. */
constexpr uint32_t kSubblockBits = 6;

/** log2 of the large block size. */
constexpr uint32_t kLargeBlockBits = 11;

static_assert((uint64_t(1) << kSubblockBits) == kSubblockSize);
static_assert((uint64_t(1) << kLargeBlockBits) == kLargeBlockSize);
static_assert(kSubblocksPerBlock == 32);

/** Integer log2 for power-of-two values (0 maps to 0). */
constexpr uint32_t
floorLog2(uint64_t x)
{
    uint32_t result = 0;
    while (x > 1) {
        x >>= 1;
        ++result;
    }
    return result;
}

/** True when @p x is a power of two (and non-zero). */
constexpr bool
isPowerOf2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Align @p addr down to a multiple of @p align (power of two). */
constexpr Addr
alignDown(Addr addr, uint64_t align)
{
    return addr & ~(align - 1);
}

/** The subblock-aligned address containing @p addr. */
constexpr Addr
subblockAddr(Addr addr)
{
    return alignDown(addr, kSubblockSize);
}

/** The large-block-aligned address containing @p addr. */
constexpr Addr
largeBlockAddr(Addr addr)
{
    return alignDown(addr, kLargeBlockSize);
}

/**
 * Offset (0..31) of the subblock containing @p addr within its large
 * block; this selects the bit in the per-block bit vector.
 */
constexpr uint32_t
subblockOffset(Addr addr)
{
    return static_cast<uint32_t>((addr >> kSubblockBits) &
                                 (kSubblocksPerBlock - 1));
}

/** Kibibytes to bytes. */
constexpr uint64_t operator""_KiB(unsigned long long v) { return v << 10; }
/** Mebibytes to bytes. */
constexpr uint64_t operator""_MiB(unsigned long long v) { return v << 20; }
/** Gibibytes to bytes. */
constexpr uint64_t operator""_GiB(unsigned long long v) { return v << 30; }

} // namespace silc

#endif // SILC_COMMON_TYPES_HH
