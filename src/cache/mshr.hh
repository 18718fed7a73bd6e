/**
 * @file
 * Miss Status Holding Registers: track outstanding LLC misses, coalesce
 * requests to the same 64B block, and bound per-core memory-level
 * parallelism (the paper's cores issue from a 128-entry ROB with a
 * bounded number of outstanding misses).
 *
 * The file is a fixed-size open-addressed table (linear probing,
 * backward-shift deletion) rather than a node-based map: every LLC miss
 * used to cost a hash-node allocation plus a waiters-vector allocation,
 * making the MSHR one of the simulator's hottest malloc sites.  The
 * first waiter lives inline in the slot — coalesced secondaries are the
 * rare case — and callbacks are the event queue's EventCallback (a
 * SmallFunction) so the hierarchy's fill closure, which overflows
 * std::function's inline buffer, does not heap-allocate either.  That
 * closure holds the core's completion, a std::function because
 * cpu::MemoryPort::access keeps that type (DESIGN.md).
 */

#ifndef SILC_CACHE_MSHR_HH
#define SILC_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"

namespace silc {
namespace cache {

/** Callback fired when a miss completes. */
using MissCallback = EventCallback;

/** Result of attempting to allocate an MSHR. */
enum class MshrAllocation
{
    NoCapacity,   ///< file full; requester must stall and retry
    Primary,      ///< new entry; the miss must be sent to memory
    Coalesced,    ///< merged into an existing outstanding miss
};

/**
 * A file of MSHRs keyed by 64B block address.
 *
 * Each entry collects waiters; complete() fires them all.  Per-core
 * outstanding-primary-miss counts are tracked so cores can be throttled
 * individually while sharing one file at the LLC.
 */
class MshrFile
{
  public:
    /**
     * @param capacity            maximum distinct outstanding blocks
     * @param per_core_capacity   maximum primary misses per core
     */
    MshrFile(uint32_t capacity, uint32_t per_core_capacity);

    /**
     * Try to allocate (or coalesce into) an entry for @p block_addr.
     *
     * @param block_addr 64B-aligned block address
     * @param core       requesting core (per-core throttling)
     * @param cb         fired when the block arrives
     * @return allocation outcome; on NoCapacity @p cb is not retained
     */
    MshrAllocation allocate(Addr block_addr, CoreId core, MissCallback cb);

    /**
     * True when allocate() would refuse any block of @p core that is not
     * outstanding: the file is full, or @p core is at its limit.
     */
    bool
    full(CoreId core) const
    {
        return count_ >= capacity_ ||
            outstandingFor(core) >= per_core_capacity_;
    }

    /** Count a refusal made without calling allocate() (see
     *  sim::MemoryHierarchy::stillRejected). */
    void countRejection() { ++rejections_; }

    /** True when an entry for @p block_addr is outstanding. */
    bool outstanding(Addr block_addr) const
    {
        return findSlot(block_addr) != nullptr;
    }

    /**
     * Complete the miss for @p block_addr at tick @p now, firing every
     * waiter in registration order and freeing the entry.
     *
     * @return number of waiters notified.
     */
    size_t complete(Addr block_addr, Tick now);

    /** Outstanding primary misses for @p core. */
    uint32_t
    outstandingFor(CoreId core) const
    {
        return core < per_core_.size() ? per_core_[core] : 0;
    }

    /** Distinct outstanding blocks. */
    size_t size() const { return count_; }

    uint64_t coalesced() const { return coalesced_; }
    uint64_t rejections() const { return rejections_; }

  private:
    struct Slot
    {
        Addr addr = kAddrInvalid;   ///< kAddrInvalid marks an empty slot
        CoreId owner = 0;
        MissCallback first;               ///< first waiter, inline
        std::vector<MissCallback> more;   ///< coalesced secondaries
    };

    /** Home slot: Fibonacci hash of the block number (low bits are 0). */
    size_t
    homeOf(Addr addr) const
    {
        return static_cast<size_t>(
                   (addr >> kSubblockBits) * 0x9E3779B97F4A7C15ull >>
                   32) &
            mask_;
    }

    const Slot *findSlot(Addr addr) const;
    Slot *findSlot(Addr addr);

    /** Empty slot @p i, backward-shifting the probe chain it breaks. */
    void removeSlot(size_t i);

    uint32_t capacity_;
    uint32_t per_core_capacity_;
    std::vector<Slot> slots_;   ///< power-of-two size, load factor <= 1/2
    size_t mask_ = 0;
    uint32_t count_ = 0;
    std::vector<uint32_t> per_core_;
    uint64_t coalesced_ = 0;
    uint64_t rejections_ = 0;
};

} // namespace cache
} // namespace silc

#endif // SILC_CACHE_MSHR_HH
