#include "sim/translation.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace sim {

Translation::Translation(uint64_t phys_bytes, uint32_t cores,
                         uint64_t seed)
    : tlb_(cores)
{
    if (phys_bytes == 0 || phys_bytes % kLargeBlockSize != 0)
        fatal("translation: physical space must be a positive multiple "
              "of the page size");
    const uint64_t n = phys_bytes / kLargeBlockSize;
    frames_.resize(n);
    for (uint64_t i = 0; i < n; ++i)
        frames_[i] = i;
    // Pre-shuffled free list => uniformly random first-touch placement.
    Rng rng(seed ^ 0xA110CA7E);
    for (uint64_t i = n; i > 1; --i) {
        const uint64_t j = rng.below(i);
        std::swap(frames_[i - 1], frames_[j]);
    }
}

uint64_t
Translation::allocate(uint64_t key)
{
    if (next_free_ >= frames_.size())
        fatal("translation: out of physical memory after %llu pages",
              static_cast<unsigned long long>(next_free_));
    const uint64_t frame = frames_[next_free_++];
    page_table_.set(key, frame);
    return frame;
}

Addr
Translation::translate(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    TlbEntry &e = tlbEntry(core, vpage);
    if (e.vpage != vpage) {
        const uint64_t k = key(core, vpage);
        const uint64_t *frame = page_table_.find(k);
        e.vpage = vpage;
        e.frame = frame != nullptr ? *frame : allocate(k);
    }
    return e.frame * kLargeBlockSize + (vaddr & (kLargeBlockSize - 1));
}

bool
Translation::noteFirstTouch(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    TlbEntry &e = tlbEntry(core, vpage);
    if (e.vpage == vpage)
        return false; // mapped, or already noted in this pass
    e.vpage = vpage;
    if (const uint64_t *frame = page_table_.find(key(core, vpage))) {
        e.frame = *frame;
        return false;
    }
    e.frame = kPendingFrame;
    return true;
}

void
Translation::allocatePage(CoreId core, uint64_t vpage)
{
    const uint64_t k = key(core, vpage);
    if (page_table_.find(k) == nullptr)
        allocate(k);
}

Addr
Translation::translateMapped(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    TlbEntry &e = tlbEntry(core, vpage);
    if (e.vpage != vpage || e.frame == kPendingFrame) {
        const uint64_t *frame = page_table_.find(key(core, vpage));
        silc_assert(frame != nullptr);
        e.vpage = vpage;
        e.frame = *frame;
    }
    return e.frame * kLargeBlockSize + (vaddr & (kLargeBlockSize - 1));
}

void
Translation::checkpoint(Blob &b)
{
    b.u64(next_free_);
    if (next_free_ > frames_.size())
        fatal("translation restore: %llu pages allocated but only %zu "
              "frames (phys size mismatch)",
              static_cast<unsigned long long>(next_free_), frames_.size());
    page_table_.checkpoint(b, ~uint64_t(0), "translation page table",
                           [&b](uint64_t &frame) { b.u64(frame); });
    if (b.reading())
        std::fill(tlb_.begin(), tlb_.end(), TlbSlice{});
}

} // namespace sim
} // namespace silc
