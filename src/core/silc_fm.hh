/**
 * @file
 * SILC-FM: Subblocked InterLeaved Cache-Like Flat Memory organization —
 * the paper's primary contribution (Section III).
 *
 * NM is an OS-visible part of the flat address space, internally managed
 * as a set-associative structure of 2KB frames.  Subblocks (64B) from an
 * FM page can interleave into an NM frame alongside the frame's native
 * page; a per-frame remap entry plus a 32-bit bit vector track residency
 * (Table I enumerates the six access scenarios).  Features:
 *
 *  - subblock-granular swapping with bit-vector-history multi-fetch,
 *  - hot-block locking driven by 6-bit aging counters (threshold 50),
 *  - 1/2/4-way associativity with LRU victim choice among unlocked ways,
 *  - bypassing that balances NM/FM bandwidth at a 0.8 access-rate target,
 *  - a way + NM/FM location predictor hiding remap-fetch latency,
 *  - remap metadata held in a dedicated NM channel.
 */

#ifndef SILC_CORE_SILC_FM_HH
#define SILC_CORE_SILC_FM_HH

#include <cstdint>

#include "core/activity_monitor.hh"
#include "core/bandwidth_balancer.hh"
#include "core/bitvector_table.hh"
#include "core/predictor.hh"
#include "core/set_metadata.hh"
#include "policy/policy.hh"

namespace silc {
namespace core {

/** Way + location predictor entries (paper: 4K). */
constexpr uint64_t kPredictorEntries = 4096;

/** SILC-FM configuration; defaults follow the paper. */
struct SilcFmParams
{
    /** Ways per NM set (paper adopts 4; Fig. 6 ablates 1). */
    uint32_t associativity = 4;
    /** Hot-block locking (Section III-C). */
    bool enable_locking = true;
    /** Bandwidth balancing / bypass (Section III-E). */
    bool enable_bypass = true;
    /** Way + location predictor (Section III-F). */
    bool enable_predictor = true;
    /** Bit-vector-history driven multi-subblock fetch (Section III-A). */
    bool enable_history_fetch = true;

    /** Hotness threshold (paper: 50 works best). */
    uint32_t hot_threshold = 50;
    /** Activity counter width in bits (paper: 6). */
    uint32_t counter_bits = 6;
    /** Memory accesses between counter agings (paper: 1M). */
    uint64_t aging_interval = 1'000'000;

    /** Target access rate for bypassing (paper: 0.8 for 4:1 bandwidth). */
    double bypass_target = 0.8;
    /** Demand accesses per access-rate measurement window. */
    uint64_t bypass_window = 4096;

    /** Bit vector history table entries (power of two). */
    uint64_t history_entries = uint64_t(1) << 20;
    /**
     * Index the history table by large-block number instead of the
     * paper's PC xor first-subblock-address signature.  Synthetic
     * traces lack the PC/pattern correlation of real SPEC code, so the
     * page id carries the information the paper's signature is meant to
     * recall (which subblocks of this block were useful last time);
     * setting this false restores the literal paper indexing.
     */
    bool history_index_by_page = true;
    /**
     * Minimum set bits in a recalled history vector for the batch fetch
     * to fire.  The paper's signature match implicitly restricts the
     * multi-subblock fetch to regular (spatially dense) access
     * patterns; sparse pointer-chasing vectors are not worth prefetching
     * and would only add swap/restore churn.
     */
    uint32_t history_min_bits = 12;
    /**
     * Minimum demanded subblocks before locking completes the full
     * large-block remap (fetching every missing subblock, as in the
     * paper).  Sparser hot blocks are pinned in place without the bulk
     * fetch — locking's protection without PoM-like fetch waste.
     */
    uint32_t lock_full_fetch_min_used = 8;

    /** Remap metadata lives in a dedicated NM channel (Section III-D). */
    bool dedicated_metadata_channel = true;
    /**
     * Model remap-entry fetch traffic and its serialization (ablation
     * hook; false idealises metadata as free on-chip state).
     */
    bool model_metadata_traffic = true;
};

/** The SILC-FM flat-memory policy. */
class SilcFmPolicy : public policy::FlatMemoryPolicy
{
  public:
    SilcFmPolicy(policy::PolicyEnv env, SilcFmParams params);

    const char *name() const override { return "silcfm"; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      policy::DemandCallback done, Tick now) override;
    policy::Location locate(Addr paddr) const override;
    void registerTelemetry(telemetry::Recorder &recorder) const override;

    void checkpoint(Blob &b) override;

    // ---- Introspection for tests and benches. ----

    const SilcFmParams &params() const { return params_; }
    const NmMetadata &metadata() const { return meta_; }
    const BitVectorTable &historyTable() const { return history_; }
    const WayPredictor &predictor() const { return predictor_; }
    const BandwidthBalancer &balancer() const { return balancer_; }

    uint64_t subblockSwaps() const { return swaps_; }
    uint64_t restores() const { return restores_; }
    uint64_t locks() const { return locks_; }
    uint64_t unlocks() const { return unlocks_; }
    uint64_t historyFetchedSubblocks() const { return history_fetched_; }
    uint64_t bypassedAccesses() const { return bypassed_; }
    uint64_t allWaysLockedEvents() const { return all_locked_; }

    /**
     * Check every structural invariant of the metadata (remap targets
     * map to their set, no duplicate remap in a set, lock/bit-vector
     * consistency).  panic()s on violation; returns true otherwise.
     */
    bool verifyIntegrity() const;

    /**
     * Mutable metadata handle for the injected-fault self-tests of the
     * differential oracle (tests/test_check.cc) ONLY: production code
     * must never mutate metadata from outside the policy.
     */
    NmMetadata &metadataForFaultInjection() { return meta_; }

  private:
    /** Flat page id is NM-native (homed in an NM frame). */
    bool isNativePage(uint64_t page) const { return page < nm_pages_; }

    /** NM device byte address of subblock @p sub of frame @p frame. */
    Addr
    nmAddr(uint64_t frame, uint32_t sub) const
    {
        return frame * kLargeBlockSize +
            static_cast<Addr>(sub) * kSubblockSize;
    }

    /** FM device byte address of subblock @p sub of FM page @p page. */
    Addr
    fmHomeAddr(uint64_t page, uint32_t sub) const
    {
        return (page - nm_pages_) * kLargeBlockSize +
            static_cast<Addr>(sub) * kSubblockSize;
    }

    /** Outcome of the functional resolution of one demand access. */
    struct Resolution
    {
        policy::Location loc;
        /** Way the access mapped to (-1: no way involved). */
        int way = -1;
        /** Metadata was mutated (swap/restore/lock) by this access. */
        bool metadata_dirty = false;
        /**
         * NM-native request: the frame (and thus way) is determined by
         * the address alone, so no serialized way search is ever needed.
         */
        bool native = false;
    };

    Resolution resolveNative(uint64_t page, uint32_t sub, Addr pc,
                             CoreId core, Tick now);
    Resolution resolveFar(uint64_t page, uint32_t sub, Addr pc,
                          CoreId core, Tick now);

    /**
     * Swap subblock @p sub of FM page @p fm_page into @p frame
     * (migration traffic for the native eviction and the install; the
     * demand read itself is issued by the caller).  Fires the history
     * fetch when this is the way's first swapped-in subblock.
     */
    void swapInSubblock(uint64_t frame, uint64_t fm_page, uint32_t sub,
                        Addr pc, Addr sub_addr, CoreId core, Tick now,
                        bool demand);

    /**
     * Exchange subblock @p sub of @p frame with the same subblock of FM
     * page @p fm_page's home slot, as pure migration: installs the FM
     * subblock (history fetch, locking) or returns it home and restores
     * the native one (swap-back, restore).
     */
    void swapWithFmHome(uint64_t frame, uint64_t fm_page, uint32_t sub,
                        CoreId core, Tick now);

    /** Fully restore @p frame's interleave and save its bit vector. */
    void restoreWay(uint64_t frame, CoreId core, Tick now);

    /** Complete the remap of @p frame's FM page and lock it. */
    void lockWay(uint64_t frame, CoreId core, Tick now);

    /** Aging sweep: age counters, unlock no-longer-hot ways. */
    void agingSweep();

    /** NM channel used for metadata requests (-1: interleaved). */
    int metadataChannel() const;

    /** Device address used for set @p set's remap metadata. */
    Addr metadataAddr(uint64_t set) const;

    /**
     * Issue the timing skeleton of a demand access: metadata fetch,
     * possibly predictor-parallel data fetch, completion chaining.
     */
    void issueDemandTimed(const Resolution &res, uint64_t set, Addr pc,
                          Addr sub_addr, CoreId core,
                          policy::DemandCallback done, Tick now);

    SilcFmParams params_;
    uint64_t nm_pages_;
    uint64_t total_pages_;

    NmMetadata meta_;
    BitVectorTable history_;
    WayPredictor predictor_;
    BandwidthBalancer balancer_;
    AgingCounterOps counter_ops_;
    AgingSchedule aging_;

    uint64_t swaps_ = 0;
    uint64_t restores_ = 0;
    uint64_t locks_ = 0;
    uint64_t unlocks_ = 0;
    uint64_t history_fetched_ = 0;
    uint64_t bypassed_ = 0;
    uint64_t all_locked_ = 0;
};

} // namespace core
} // namespace silc

#endif // SILC_CORE_SILC_FM_HH
