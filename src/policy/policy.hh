/**
 * @file
 * FlatMemoryPolicy: the interface every NM/FM organization scheme
 * implements (static placement and its no-NM baseline, HMA, CAMEO,
 * CAMEO+P, PoM, SILC-FM and the cache-like rivals).
 *
 * A policy owns the flat OS-visible physical address space (NM occupies
 * the low addresses, FM the high ones, per Section III of the paper) and
 * decides, for every LLC miss, where the data currently lives, what
 * migration traffic to generate, and when the demand completes.
 *
 * Policies are functional-first: remap state updates synchronously while
 * every byte moved — demand, migration, metadata — is issued into the
 * DRAM systems so queues, banks, and buses see realistic occupancy.
 */

#ifndef SILC_POLICY_POLICY_HH
#define SILC_POLICY_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "dram/dram_system.hh"

namespace silc {

class Blob;

namespace telemetry {
class Sampler;
} // namespace telemetry

namespace policy {

/** Completion callback for a demand access: the event queue's type, so
 *  the DRAM controller schedules it as it is. */
using DemandCallback = EventCallback;

/** Where a flat physical 64B block currently resides. */
struct Location
{
    bool in_nm = false;
    /** Device-local byte address. */
    Addr device_addr = 0;

    bool operator==(const Location &) const = default;
};

/** Devices and services a policy operates on. */
struct PolicyEnv
{
    dram::DramSystem *nm = nullptr;
    dram::DramSystem *fm = nullptr;
    EventQueue *events = nullptr;
};

/**
 * Scheme-agnostic functional observer, called synchronously with the
 * policy's metadata already in its post-event state.  Both tiers of the
 * oracle implement it: the shadow-data checker (src/check/shadow.hh)
 * tracks where every flat block's bytes live under ANY organization
 * scheme, and SILC-FM's differential checker
 * (src/check/differential.hh) steps its reference model on every
 * demand.
 *
 *  - onBlockCopied fires for every 64B block whose data is copied from
 *    one device location to another (the destination's prior content is
 *    overwritten; the source keeps a stale copy),
 *  - onBlocksSwapped fires for an atomic exchange of two locations'
 *    contents (the common NM<->FM migration primitive),
 *  - onDemandResolved fires at the end of every demandAccess, after
 *    any migrations the access triggered.
 *
 * Notifications describe the *functional* data movement, not the
 * timed DRAM traffic: a swap whose demand read carries one direction's
 * data still reports a full swap.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;

    virtual void onDemandResolved(Addr paddr, bool is_write, CoreId core,
                                  Addr pc, const Location &serviced) = 0;
    virtual void onBlockCopied(const Location &src,
                               const Location &dst) = 0;
    virtual void onBlocksSwapped(const Location &a,
                                 const Location &b) = 0;
};

/** Base class of all flat-memory organization schemes. */
class FlatMemoryPolicy
{
  public:
    explicit FlatMemoryPolicy(PolicyEnv env);
    virtual ~FlatMemoryPolicy() = default;

    FlatMemoryPolicy(const FlatMemoryPolicy &) = delete;
    FlatMemoryPolicy &operator=(const FlatMemoryPolicy &) = delete;

    /** Short scheme name ("silcfm", "cameo", ...). */
    virtual const char *name() const = 0;

    /** Bytes of OS-visible flat physical address space. */
    virtual uint64_t flatSpaceBytes() const = 0;

    /**
     * Service an LLC demand miss for the 64B block at @p paddr.
     *
     * @param paddr    flat physical address (64B aligned)
     * @param is_write the miss was triggered by a store (fetch-for-write)
     * @param core     requesting core
     * @param pc       program counter of the triggering instruction
     * @param done     fired when the critical data is available
     * @param now      current tick
     */
    virtual void demandAccess(Addr paddr, bool is_write, CoreId core,
                              Addr pc, DemandCallback done, Tick now) = 0;

    /**
     * Accept an LLC dirty eviction of the 64B block at @p paddr.
     * Default: write to the block's current location.
     */
    virtual void writeback(Addr paddr, CoreId core, Tick now);

    /** Periodic hook (epoch schemes, counter decay); called every tick. */
    virtual void tick(Tick now) { (void)now; }

    /**
     * Earliest tick at which tick() does anything (kTickNever when it
     * never does).  Lets the main loop fast-forward over idle stretches
     * without missing an epoch boundary.
     */
    virtual Tick nextWakeTick() const { return kTickNever; }

    /**
     * Current residence of the 64B block at @p paddr.  Used for
     * writebacks and, in tests, to assert the mapping stays bijective.
     */
    virtual Location locate(Addr paddr) const = 0;

    // ---- Static "home" layout (sparse-checker support). ----
    //
    // Every scheme has a data-less default mapping: where a block lives
    // in a freshly constructed policy, before any migration.  The sparse
    // shadow-data oracle stores only the blocks that DEVIATE from this
    // layout, so its memory cost is footprint- rather than
    // capacity-proportional.  One number sets the layout, homeNmBytes():
    // a flat address below it homes at the same NM address, any other
    // at FM address (flat - homeNmBytes()), and NM past it is nobody's
    // home (e.g. DRAM-cache slots).  Contract: locate(p) ==
    // homeLocation(p) for every p on a fresh policy.

    /** Bytes of NM, from address 0, that are some block's home.  The
     *  base is the identity layout's min(NM capacity, flat space). */
    virtual uint64_t homeNmBytes() const;

    /** Residence of @p paddr in a freshly constructed policy. */
    Location homeLocation(Addr paddr) const;

    /** Flat address whose home is @p loc, or kAddrInvalid if none. */
    Addr homeFlatAddr(const Location &loc) const;

    /**
     * Register per-epoch telemetry probes over this policy's counters.
     * The base registers the service counters and the Equation 1 hit
     * rate; schemes override (and chain up) to add their own series.
     * The policy must outlive @p sampler.
     */
    virtual void registerTelemetry(telemetry::Sampler &sampler) const;

    // ---- Access-rate statistics (paper Equation 1). ----

    /** Demand requests serviced from NM. */
    uint64_t nmServiced() const { return nm_serviced_; }
    /** Demand requests serviced from FM. */
    uint64_t fmServiced() const { return fm_serviced_; }
    /** Total demand requests (LLC misses seen). */
    uint64_t demandRequests() const
    {
        return nm_serviced_ + fm_serviced_;
    }

    /** AccessRate = NM-serviced / LLC misses (Equation 1). */
    double
    accessRate() const
    {
        const uint64_t total = demandRequests();
        return total == 0
            ? 0.0
            : static_cast<double>(nm_serviced_) / total;
    }

    uint64_t migrationOps() const { return migration_ops_; }

    // ---- Functional (warming) mode and checkpointing. ----

    /**
     * In functional mode the policy's remap/metadata state machines run
     * unchanged, but nothing is issued into the DRAM devices: reads
     * complete synchronously at `now` and writes vanish.  The sampling
     * subsystem uses this to fast-forward between measurement windows
     * while keeping NM contents, locks, and predictors warm.
     */
    void setFunctionalMode(bool on) { functional_mode_ = on; }

    /** The devices this policy drives (the shadow-data oracle uses the
     *  capacities for its bounds and occupancy sweeps). */
    const PolicyEnv &environment() const { return env_; }

    /**
     * Checkpoint the policy state (common/serialize.hh).  The base lists
     * the service counters; overrides chain up, then list their own.
     */
    virtual void checkpoint(Blob &b);

    /**
     * Attach a functional observer.  Observers are notified in the
     * order they were added; the policy does not own them, and each
     * must outlive it.
     */
    void addAccessObserver(AccessObserver *observer)
    {
        access_observers_.push_back(observer);
    }

  protected:
    /** Record where the critical data of a demand access came from. */
    void
    recordService(bool from_nm)
    {
        if (from_nm)
            ++nm_serviced_;
        else
            ++fm_serviced_;
    }

    /** Issue a read into a device. @p cb may be empty. */
    void issueRead(dram::DramSystem &dev, Addr dev_addr, uint32_t bytes,
                   dram::TrafficClass cls, CoreId core,
                   DemandCallback cb, Tick now, int force_channel = -1);

    /** Issue a write into a device (fire-and-forget). */
    void issueWrite(dram::DramSystem &dev, Addr dev_addr, uint32_t bytes,
                    dram::TrafficClass cls, CoreId core, Tick now,
                    int force_channel = -1);

    /**
     * Move one 64B subblock: read from @p src, then (on completion)
     * write to @p dst.  Counts as one migration op and notifies the
     * access observers of the copy.
     */
    void moveSubblock(const Location &src, const Location &dst,
                      CoreId core, Tick now);

    /**
     * moveSubblock's traffic and migration-op accounting without the
     * copy notification — for movement that is one half of a larger
     * functional event the caller reports itself (e.g. a swap whose
     * other direction rides on the demand read).
     */
    void moveSubblockQuiet(const Location &src, const Location &dst,
                           CoreId core, Tick now);

    /**
     * Exchange the 64B contents of @p a and @p b: exactly the traffic
     * of moveSubblock(a, b) followed by moveSubblock(b, a) (two
     * migration ops, reads issued at @p now, writes chained on their
     * completions), reported to the observers as one atomic swap.
     */
    void swapSubblocks(const Location &a, const Location &b, CoreId core,
                       Tick now);

    /** Report a demand access' resolution to the access observers. */
    void
    notifyDemand(Addr paddr, bool is_write, CoreId core, Addr pc,
                 const Location &serviced)
    {
        for (AccessObserver *o : access_observers_)
            o->onDemandResolved(paddr, is_write, core, pc, serviced);
    }

    /** Report a functional copy the traffic helpers did not. */
    void
    notifyCopy(const Location &src, const Location &dst)
    {
        for (AccessObserver *o : access_observers_)
            o->onBlockCopied(src, dst);
    }

    /** Report a functional swap the traffic helpers did not. */
    void
    notifySwap(const Location &a, const Location &b)
    {
        for (AccessObserver *o : access_observers_)
            o->onBlocksSwapped(a, b);
    }

    /** Device + address for a flat physical address (identity layout:
     *  NM = low addresses, FM = high). */
    Location identityLocation(Addr paddr) const;

    dram::DramSystem &deviceFor(const Location &loc) const;

    PolicyEnv env_;
    std::vector<AccessObserver *> access_observers_;
    uint64_t nm_serviced_ = 0;
    uint64_t fm_serviced_ = 0;
    uint64_t migration_ops_ = 0;
    bool functional_mode_ = false;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_POLICY_HH
