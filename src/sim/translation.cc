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
    page_table_.emplace(key, frame);
    return frame;
}

Addr
Translation::translate(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    TlbEntry &e = tlbEntry(core, vpage);
    if (e.vpage != vpage) {
        const uint64_t k = key(core, vpage);
        const auto it = page_table_.find(k);
        e.vpage = vpage;
        e.frame = it != page_table_.end() ? it->second : allocate(k);
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
    const auto it = page_table_.find(key(core, vpage));
    if (it != page_table_.end()) {
        e.frame = it->second;
        return false;
    }
    e.frame = kPendingFrame;
    return true;
}

void
Translation::allocatePage(CoreId core, uint64_t vpage)
{
    const uint64_t k = key(core, vpage);
    if (page_table_.find(k) == page_table_.end())
        allocate(k);
}

Addr
Translation::translateMapped(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    TlbEntry &e = tlbEntry(core, vpage);
    if (e.vpage != vpage || e.frame == kPendingFrame) {
        const auto it = page_table_.find(key(core, vpage));
        silc_assert(it != page_table_.end());
        e.vpage = vpage;
        e.frame = it->second;
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
    // The page table as a count and its (key, frame) pairs in ascending
    // key order.
    std::vector<std::pair<uint64_t, uint64_t>> sorted(page_table_.begin(),
                                                      page_table_.end());
    std::sort(sorted.begin(), sorted.end());
    uint64_t n = sorted.size();
    b.u64(n);
    for (uint64_t i = 0; i < n; ++i) {
        auto [k, frame] = b.reading()
            ? std::pair<uint64_t, uint64_t>{}
            : sorted[i];
        b.u64(k);
        b.u64(frame);
        if (b.reading())
            page_table_[k] = frame;
    }
    if (b.reading())
        std::fill(tlb_.begin(), tlb_.end(), TlbSlice{});
}

} // namespace sim
} // namespace silc
