#include "sim/translation.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace sim {

Translation::Translation(uint64_t phys_bytes, uint64_t seed)
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
Translation::allocate(CoreId core, uint64_t key)
{
    if (next_free_ >= frames_.size())
        fatal("translation: out of physical memory after %llu pages",
              static_cast<unsigned long long>(next_free_));
    const uint64_t frame = frames_[next_free_++];
    page_table_.emplace(key, frame);
    ++per_core_pages_[core];
    return frame;
}

Addr
Translation::translate(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    if (core < tlb_.size()) {
        const TlbEntry &e = tlbEntry(core, vpage);
        if (e.vpage == vpage)
            return e.frame * kLargeBlockSize +
                (vaddr & (kLargeBlockSize - 1));
    }
    const uint64_t k = key(core, vpage);
    auto it = page_table_.find(k);
    const uint64_t frame =
        it != page_table_.end() ? it->second : allocate(core, k);
    if (core >= tlb_.size())
        tlb_.resize(static_cast<size_t>(core) + 1);
    TlbEntry &e = tlbEntry(core, vpage);
    e.vpage = vpage;
    e.frame = frame;
    return frame * kLargeBlockSize + (vaddr & (kLargeBlockSize - 1));
}

void
Translation::ensureCores(uint32_t cores)
{
    sized_cores_ = std::max(sized_cores_, cores);
    if (tlb_.size() < sized_cores_)
        tlb_.resize(sized_cores_);
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
        allocate(core, k);
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

uint64_t
Translation::pagesAllocatedFor(CoreId core) const
{
    auto it = per_core_pages_.find(core);
    return it == per_core_pages_.end() ? 0 : it->second;
}

void
Translation::snapshot(BlobWriter &w) const
{
    w.putU64(next_free_);

    std::vector<std::pair<uint64_t, uint64_t>> entries(
        page_table_.begin(), page_table_.end());
    std::sort(entries.begin(), entries.end());
    w.putU64(entries.size());
    for (const auto &[k, frame] : entries) {
        w.putU64(k);
        w.putU64(frame);
    }

    std::vector<std::pair<CoreId, uint64_t>> per_core(
        per_core_pages_.begin(), per_core_pages_.end());
    std::sort(per_core.begin(), per_core.end());
    w.putU64(per_core.size());
    for (const auto &[core, pages] : per_core) {
        w.putU32(core);
        w.putU64(pages);
    }
}

void
Translation::restore(BlobReader &r)
{
    next_free_ = r.getU64();
    if (next_free_ > frames_.size())
        fatal("translation restore: %llu pages allocated but only %zu "
              "frames (phys size mismatch)",
              static_cast<unsigned long long>(next_free_), frames_.size());

    page_table_.clear();
    const uint64_t entries = r.getU64();
    for (uint64_t i = 0; i < entries; ++i) {
        const uint64_t k = r.getU64();
        const uint64_t frame = r.getU64();
        page_table_.emplace(k, frame);
    }

    per_core_pages_.clear();
    const uint64_t cores = r.getU64();
    for (uint64_t i = 0; i < cores; ++i) {
        const CoreId core = r.getU32();
        per_core_pages_[core] = r.getU64();
    }

    // Invalidate the translation cache but keep the ensureCores() floor:
    // shrinking here would reintroduce the lazy-resize that the warming
    // engine's concurrent per-core phases cannot tolerate.
    tlb_.assign(sized_cores_, TlbSlice{});
}

} // namespace sim
} // namespace silc
