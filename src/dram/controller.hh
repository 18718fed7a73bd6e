/**
 * @file
 * Per-channel memory controller: read/write queues with a drain-mode write
 * policy and FR-FCFS scheduling over a bounded window, issuing at most one
 * composite access per memory cycle.
 *
 * The controller is event-driven: instead of being scanned every memory
 * cycle it keeps exactly one pending wakeup — the earliest tick anything
 * observable can happen (an owning-queue bank becoming ready, the
 * refresh deadline, a background-read aging deadline, or a new enqueue).
 * The wakeup lives in a plain tick register (next_scan_) that the owning
 * DramSystem compares against a device-wide minimum each cycle, not in
 * the EventQueue heap: at saturation a channel re-arms every memory
 * cycle, and going through heap push/pop plus callback dispatch for that
 * measurably regressed end-to-end throughput (see DESIGN.md,
 * "Event-driven DRAM scheduling").  Scans still run in DramSystem's
 * tick() phase, so issued-command ordering is identical to the
 * historical polled loop.
 *
 * Queued requests live in a per-channel arena with intrusive FIFO lists
 * per traffic class, so FR-FCFS picks unlink in O(1) instead of the old
 * deque erase-from-middle.  An arena entry is a compact record, not a
 * copy of the request: the completion callback is parked in the
 * EventQueue once, on enqueue, and the entry keeps its handle.
 */

#ifndef SILC_DRAM_CONTROLLER_HH
#define SILC_DRAM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/request.hh"
#include "dram/timing.hh"

namespace silc {
namespace dram {

/** Null index for the request arena's intrusive lists. */
constexpr uint32_t kNullSlot = ~uint32_t(0);

/**
 * One DRAM channel: banks, data bus, queues, scheduler.
 *
 * Scanned by the owning DramSystem only at its pending-wakeup tick
 * (see requestScanAt()/nextScanAt()).  Reads take priority over writes
 * except in drain mode (write queue above its high watermark) or when no
 * reads are pending; background reads that exceed the aging bound are
 * promoted ahead of demand traffic so migration never starves.
 */
class ChannelController
{
  public:
    /**
     * @param read_delay_hist optional device-shared histogram of read
     *        queueing delays (CPU ticks), sampled once per read issued;
     *        the owning DramSystem exports its percentiles as telemetry.
     */
    ChannelController(const DramTimingParams &params, EventQueue &events,
                      stats::Distribution *read_delay_hist = nullptr);

    /** Accept a request decoded onto flat bank index @p bank (rank
     *  folded in) and @p row (queues are elastic; see DESIGN.md). */
    void enqueue(DramRequest &&req, uint32_t bank, int64_t row, Tick now);

    /**
     * Ensure the channel is scanned no later than tick @p when.  Pulling
     * the register earlier never loses a wakeup; a too-early value only
     * costs one harmless no-op scan (scans are idempotent at any tick).
     */
    void requestScanAt(Tick when)
    {
        if (when < next_scan_)
            next_scan_ = when;
    }

    /**
     * Tick of the pending wakeup: the earliest tick at which this
     * channel could possibly act (issue, refresh, drain-state change, or
     * background promotion), or kTickNever when no such tick exists.
     * The never-miss invariant the oracle tests check: whenever the
     * channel has something actionable at tick T, nextScanAt() <= T.
     */
    Tick nextScanAt() const { return next_scan_; }

    /**
     * Run one scheduling step at tick @p now: refresh catch-up, write
     * drain hysteresis, at most one FR-FCFS issue, then re-arm the next
     * wakeup.  Called by DramSystem for due channels only.
     */
    void scan(Tick now);

    /** Pending reads + writes. */
    size_t queuedRequests() const
    {
        return read_q_.count + bg_read_q_.count + write_q_.count;
    }

    size_t readQueueDepth() const
    {
        return read_q_.count + bg_read_q_.count;
    }
    size_t writeQueueDepth() const { return write_q_.count; }

    /** Ticks the data bus has been busy (utilization numerator). */
    Tick busBusyTicks() const { return bus_busy_ticks_; }

    uint64_t rowHits() const { return row_hits_; }
    uint64_t rowMisses() const { return row_misses_; }
    uint64_t activations() const { return activations_; }
    uint64_t refreshes() const { return refreshes_; }

    /** Background reads issued ahead of demand via the aging bound. */
    uint64_t bgPromotions() const { return bg_promotions_; }

    /** Sum and count of read queueing delays (enqueue to data start). */
    double readQueueDelaySum() const { return read_delay_sum_; }
    uint64_t readsServed() const { return reads_served_; }
    uint64_t writesServed() const { return writes_served_; }

    // ---- test-only introspection (wakeup-oracle unit tests) ----------

    Tick nextRefreshAt() const { return next_refresh_; }
    bool drainingWrites() const { return draining_writes_; }
    size_t numBanks() const { return banks_.size(); }
    /** Enqueue ticks of one queue in FIFO order; 0=read, 1=bg,
     *  2=write. */
    std::vector<Tick> queueSnapshot(int which) const;

  private:
    /**
     * One queued request: what scheduling and issue read, plus the
     * parked completion handle.  The FR-FCFS walk reads bank, row and
     * next from here, so the entry stays small.
     */
    struct Queued
    {
        Addr addr;
        int64_t row;
        Tick enqueued;
        uint32_t bank;
        uint32_t bytes;
        CoreId core;
        /** EventQueue::park() handle, or kNullSlot without a callback. */
        uint32_t done;
        /** Next entry in the owning list or the free list. */
        uint32_t next;
        TrafficClass traffic;
        bool is_write;
    };
    static_assert(sizeof(Queued) == 48);

    /** Intrusive FIFO list over the request arena. */
    struct SlotList
    {
        uint32_t head = kNullSlot;
        uint32_t tail = kNullSlot;
        uint32_t count = 0;
    };

    uint32_t allocSlot(DramRequest &&req, uint32_t bank, int64_t row,
                       Tick now);
    void freeSlot(uint32_t idx);
    void pushBack(SlotList &q, uint32_t idx);
    void unlink(SlotList &q, uint32_t idx, uint32_t prev);

    /** True when the oldest background read has aged past the bound. */
    bool bgPromotable(Tick now) const;

    /**
     * The queue that owns the issue slot this cycle, or nullptr when all
     * queues are empty.  Priority: forced write drain > aged background
     * reads > critical reads > opportunistic writes > background reads.
     */
    SlotList *owningQueue(Tick now, bool *promoted);

    /** Pick and issue at most one request; true if one was issued. */
    bool tryIssue(Tick now);

    /**
     * FR-FCFS selection from @p q within the scheduling window: first
     * ready row hit, else the oldest ready request.  Returns the slot
     * index (kNullSlot if none ready) and its list predecessor.  When
     * nothing is ready, @p min_ready_out holds the earliest readyAt()
     * across the window's banks — the re-arm tick — so rearm() never
     * walks the queue a second time.
     */
    uint32_t selectFrFcfs(const SlotList &q, Tick now, uint32_t *prev_out,
                          Tick *min_ready_out) const;

    void issue(const Queued &q, Tick now);

    /** Compute and arm the next wakeup after a scan at @p now. */
    void rearm(Tick now, bool issued);

    const DramTimingParams &params_;
    EventQueue &events_;
    stats::Distribution *read_delay_hist_;

    std::vector<Bank> banks_;

    /** Request arena: each entry is linked through its next field. */
    std::vector<Queued> slots_;
    uint32_t free_head_ = kNullSlot;

    /** Critical-path reads: demand and metadata. */
    SlotList read_q_;
    /** Background reads: migration and writeback-related. */
    SlotList bg_read_q_;
    SlotList write_q_;

    Tick bus_free_ = 0;
    Tick bus_busy_ticks_ = 0;
    bool draining_writes_ = false;
    Tick next_refresh_ = 0;

    /** Drain engages at the high watermark... */
    size_t drain_high_ = 0;
    /** ...and releases this many entries below it (>=1 even at depth 8). */
    size_t drain_release_margin_ = 0;
    /** Aging bound for background reads in CPU ticks (0: disabled). */
    Tick bg_max_wait_ticks_ = 0;

    /** The pending wakeup (see nextScanAt()). */
    Tick next_scan_ = kTickNever;

    /**
     * Scratch from the last tryIssue(), consumed by rearm(): whether an
     * owning queue existed, and (on a failed issue) the earliest bank
     * readyAt() across its window.
     */
    bool scan_had_owner_ = false;
    Tick scan_owner_ready_ = kTickNever;

    uint64_t row_hits_ = 0;
    uint64_t row_misses_ = 0;
    uint64_t activations_ = 0;
    uint64_t refreshes_ = 0;
    uint64_t bg_promotions_ = 0;
    double read_delay_sum_ = 0.0;
    uint64_t reads_served_ = 0;
    uint64_t writes_served_ = 0;
};

} // namespace dram
} // namespace silc

#endif // SILC_DRAM_CONTROLLER_HH
