/**
 * @file
 * HMA — the epoch-based software-managed scheme (Meswani et al., HPCA
 * 2015) the paper compares against: the OS counts page accesses, marks
 * pages above a threshold, and at each epoch boundary bulk-swaps hot FM
 * pages with cold NM pages (fully associative placement).  Migration
 * requires PTE updates and TLB shootdowns, modelled as a window during
 * which demand accesses are stalled, on top of the 2KB-per-page
 * migration traffic.
 *
 * The defining weakness: reaction latency.  A page that becomes hot
 * mid-epoch is serviced from FM until the next boundary.
 */

#ifndef SILC_POLICY_HMA_HH
#define SILC_POLICY_HMA_HH

#include <cstdint>

#include "common/sparse_array.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/** HMA configuration. */
struct HmaParams
{
    /** Ticks between epoch boundaries (scaled-down default). */
    Tick epoch_ticks = 2'000'000;
    /** Access count that marks a page hot (at least 1: untouched
     *  pages are never hot). */
    uint32_t hot_threshold = 50;
    /** Maximum pages migrated per epoch boundary. */
    uint32_t max_migrations_per_epoch = 2048;
    /** Fixed OS overhead per epoch that performs migrations (ticks). */
    Tick os_base_overhead = 50'000;
    /**
     * Additional OS overhead per migrated page (PTE update + multi-core
     * TLB shootdown; ~0.6us at 3.2GHz — the "extremely high" software
     * costs the paper attributes to epoch schemes).
     */
    Tick os_per_page_overhead = 1'200;
};

/** Epoch-based OS page placement. */
class HmaPolicy : public FlatMemoryPolicy
{
  public:
    HmaPolicy(PolicyEnv env, HmaParams params);

    const char *name() const override { return "hma"; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    Location locate(Addr paddr) const override;
    void tick(Tick now) override;
    Tick nextWakeTick() const override { return next_epoch_; }

    uint64_t epochs() const { return epochs_; }
    uint64_t pagesMigrated() const { return pages_migrated_; }

  private:
    uint32_t
    frameOf(uint64_t page) const
    {
        return frame_of_.get(page, static_cast<uint32_t>(page));
    }

    uint32_t
    pageAt(uint64_t frame) const
    {
        return page_at_.get(frame, static_cast<uint32_t>(frame));
    }

    void runEpoch(Tick now);

    /** Swap the residence of two flat pages (migration traffic). */
    void swapPages(uint64_t page_a, uint64_t page_b, Tick now);

    HmaParams params_;
    uint64_t nm_pages_;

    /** page -> frame (flat slot) and its inverse; an absent page sits
     *  in its own frame. */
    SparseArray<uint32_t> frame_of_;
    SparseArray<uint32_t> page_at_;
    /** This epoch's access count per page (absent: 0). */
    SparseArray<uint32_t> counts_;

    Tick next_epoch_;
    Tick os_busy_until_ = 0;
    uint64_t epochs_ = 0;
    uint64_t pages_migrated_ = 0;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_HMA_HH
