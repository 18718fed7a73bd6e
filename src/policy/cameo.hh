/**
 * @file
 * CAMEO (Chou et al., MICRO 2014) as described and evaluated in the
 * SILC-FM paper: a hardware part-of-memory scheme that swaps 64B blocks
 * between NM and FM within direct-mapped congruence groups.  The Line
 * Location Table (LLT) entry lives next to the data in the NM row, so
 * every NM access uses an extended burst (64B data + LLT bytes) and a
 * single memory request.
 *
 * CAMEOP adds the paper's next-N-line prefetcher (Section IV: fetch the
 * next 3 lines on an FM access), trading extra migration bandwidth for
 * spatial-locality hits.
 */

#ifndef SILC_POLICY_CAMEO_HH
#define SILC_POLICY_CAMEO_HH

#include <cstdint>
#include <vector>

#include "policy/policy.hh"

namespace silc {
namespace policy {

/** CAMEO configuration. */
struct CameoParams
{
    /** Extra bytes fetched per NM access for the in-row LLT entry. */
    uint32_t llt_bytes = 8;
    /** Next-line prefetch degree (0 = plain CAMEO, 3 = CAMEOP). */
    uint32_t prefetch_degree = 0;
    /**
     * Line Location Predictor entries (the original CAMEO includes an
     * LLP so a predicted-FM access is forwarded to FM in parallel with
     * the LLT fetch instead of serialising behind it); 0 disables.
     */
    uint64_t llp_entries = 65536;
};

/** CAMEO / CAMEO+prefetch. */
class CameoPolicy : public FlatMemoryPolicy
{
  public:
    CameoPolicy(PolicyEnv env, CameoParams params);

    const char *name() const override
    {
        return params_.prefetch_degree > 0 ? "camp" : "cam";
    }

    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    Location locate(Addr paddr) const override;

    void snapshotState(BlobWriter &w) const override;
    void restoreState(BlobReader &r) override;

    uint64_t swaps() const { return swaps_; }
    uint64_t prefetches() const { return prefetches_; }
    uint64_t llpCorrect() const { return llp_correct_; }
    uint64_t llpLookups() const { return llp_lookups_; }

  private:
    /** Congruence group of flat 64B block @p block. */
    uint64_t groupOf(uint64_t block) const { return block % nm_blocks_; }

    /** Member index (0 = NM-native) of flat block @p block. */
    uint32_t
    memberOf(uint64_t block) const
    {
        return static_cast<uint32_t>(block / nm_blocks_);
    }

    /** Current slot (0 = NM) of member @p m in group @p g. */
    uint8_t &slotOf(uint64_t g, uint32_t m);
    uint8_t slotOf(uint64_t g, uint32_t m) const;

    /** Device location of slot @p slot in group @p g. */
    Location slotLocation(uint64_t g, uint8_t slot) const;

    /** Member currently occupying slot @p slot of group @p g. */
    uint32_t memberAtSlot(uint64_t g, uint8_t slot) const;

    /**
     * Swap flat block @p block (currently in FM) into its group's NM
     * slot, evicting the present occupant to the vacated FM slot.
     * Issues migration traffic at @p now; metadata is already read by
     * the caller.
     */
    void swapIntoNm(uint64_t block, CoreId core, Tick now);

    /** LLP index for a flat 64B block. */
    uint64_t llpIndex(uint64_t block) const;

    CameoParams params_;
    uint64_t nm_blocks_;
    uint32_t members_;   ///< K + 1
    std::vector<uint8_t> perm_;
    /** Line Location Predictor: 1 = predicted in FM. */
    std::vector<uint8_t> llp_;
    uint64_t swaps_ = 0;
    uint64_t prefetches_ = 0;
    uint64_t llp_correct_ = 0;
    uint64_t llp_lookups_ = 0;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_CAMEO_HH
