/**
 * @file
 * Virtual-to-physical translation with 2KB pages (Section IV-A).
 *
 * First-touch allocation over a pre-shuffled free-frame list gives the
 * random static placement the paper's schemes start from; per-core
 * address spaces are disjoint (SPEC rate mode: "different instances do
 * not share the same physical address space").
 */

#ifndef SILC_SIM_TRANSLATION_HH
#define SILC_SIM_TRANSLATION_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/sparse_array.hh"
#include "common/types.hh"

namespace silc {

class Blob;

namespace sim {

/** The page-table / frame-allocator pair. */
class Translation
{
  public:
    /**
     * @param phys_bytes flat physical space size (policy-defined)
     * @param cores      cores [0, cores) that translate
     * @param seed       RNG seed for the frame shuffle
     */
    Translation(uint64_t phys_bytes, uint32_t cores, uint64_t seed);

    /**
     * Translate @p vaddr of @p core, allocating a frame on first touch.
     * fatal() when physical memory is exhausted.
     */
    Addr translate(CoreId core, Addr vaddr);

    // ---- First-touch split (the functional-warming engine) ----------
    //
    // translate() = noteFirstTouch() + allocatePage() + translateMapped()
    // with the allocation hoisted out: the per-core phases note and
    // translate concurrently (each touches only its own core's TLB
    // slice and reads the page table), and allocatePage() runs serially
    // in between, in global access order, so frames are handed out
    // exactly as the interleaved translate() calls would.

    /**
     * True when @p core's page of @p vaddr has no frame yet and was not
     * noted since the core's last translateMapped() pass: the caller
     * records the access as the page's first touch.  Marks the TLB slot
     * pending so repeats hit it.  Allocation must not run concurrently.
     */
    bool noteFirstTouch(CoreId core, Addr vaddr);

    /** Allocate @p core's page @p vpage unless it is already mapped (a
     *  repeat note after its pending TLB slot was evicted). */
    void allocatePage(CoreId core, uint64_t vpage);

    /**
     * translate() of an address whose page is already mapped: no
     * allocation, and it writes only @p core's TLB slice (resolving a
     * pending slot).  Safe concurrently across cores while no
     * allocation runs.
     */
    Addr translateMapped(CoreId core, Addr vaddr);

    /** Pages allocated so far (the measured footprint). */
    uint64_t pagesAllocated() const { return next_free_; }

    /**
     * Checkpoint the page table and allocation cursor.  The shuffled
     * frame list is ctor-pure (a pure function of phys_bytes and seed)
     * and is not captured, so a checkpoint is read into a Translation
     * constructed with the same parameters.  The page table is written
     * as every other sparse table is (SparseArray::checkpoint).
     * Reading invalidates the translation cache.
     */
    void checkpoint(Blob &b);

  private:
    static uint64_t
    key(CoreId core, uint64_t vpage)
    {
        return (static_cast<uint64_t>(core) << 40) | vpage;
    }

    /** Hand @p key the next frame of the shuffled free list. */
    uint64_t allocate(uint64_t key);

    /** Page key -> frame.  Mappings are first-touch and never erased. */
    SparseArray<uint64_t> page_table_;
    std::vector<uint64_t> frames_;
    uint64_t next_free_ = 0;

    /**
     * Per-core direct-mapped translation cache.  Mappings are never
     * invalidated (first-touch only), so serving repeat lookups from
     * here is exact; it exists because the interleaving of instruction
     * lines, stack-like friendly-region accesses and hot-page bursts
     * defeats a single-entry memo, and the hash-map probe was ~17% of
     * simulation time.  One cache-line-aligned slice per core, sized
     * at construction, so cores translating concurrently never write a
     * shared line and nothing reallocates under them.
     */
    static constexpr uint32_t kTlbEntries = 256; // per core, power of 2

    /** TlbEntry::frame of a slot noted by noteFirstTouch() whose frame
     *  is not allocated yet; translateMapped() resolves it.  None
     *  outlives a warming chunk (its per-core phase translates every
     *  noted access), so translate() never sees one. */
    static constexpr uint64_t kPendingFrame = ~uint64_t(0);

    struct TlbEntry
    {
        uint64_t vpage = ~uint64_t(0);
        uint64_t frame = 0;
    };
    struct alignas(64) TlbSlice
    {
        TlbEntry entries[kTlbEntries];
    };

    TlbEntry &
    tlbEntry(CoreId core, uint64_t vpage)
    {
        return tlb_[core].entries[vpage & (kTlbEntries - 1)];
    }

    std::vector<TlbSlice> tlb_;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_TRANSLATION_HH
