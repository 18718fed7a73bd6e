#include "dram/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace silc {
namespace dram {

const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::Demand: return "demand";
      case TrafficClass::Migration: return "migration";
      case TrafficClass::Metadata: return "metadata";
      case TrafficClass::Writeback: return "writeback";
    }
    return "?";
}

ChannelController::ChannelController(const DramTimingParams &params,
                                     EventQueue &events,
                                     stats::Distribution *read_delay_hist)
    : params_(params), events_(events),
      read_delay_hist_(read_delay_hist)
{
    banks_.resize(params_.banks_per_rank * params_.ranks_per_channel);
    next_refresh_ = params_.t_refi != 0
        ? params_.toTicks(params_.t_refi)
        : kTickNever;

    // Drain engages near-full and releases a margin below the watermark.
    // The margin scales with the queue depth (the old fixed margin of 8
    // could exceed the watermark itself at depth <= 8, making the release
    // condition unsatisfiable and draining the queue to empty).  At the
    // default depth of 32 this is the same high=28/release<=20 window the
    // polled controller used.
    drain_high_ = params_.queue_depth -
        std::max<size_t>(1, params_.queue_depth / 8);
    drain_release_margin_ = std::max<size_t>(1, params_.queue_depth / 4);

    bg_max_wait_ticks_ = params_.bg_max_wait_mem_cycles != 0
        ? params_.toTicks(params_.bg_max_wait_mem_cycles)
        : 0;

    slots_.reserve(2 * params_.queue_depth);

    // The refresh deadline is the only wakeup source that exists before
    // any traffic arrives.
    next_scan_ = next_refresh_;
}

uint32_t
ChannelController::allocSlot(DramRequest &&req, uint32_t bank, int64_t row,
                             Tick now)
{
    const Queued q{
        .addr = req.addr,
        .row = row,
        .enqueued = now,
        .bank = bank,
        .bytes = req.bytes,
        .core = req.core,
        .done = req.on_complete ? events_.park(std::move(req.on_complete))
                                : kNullSlot,
        .next = kNullSlot,
        .traffic = req.traffic,
        .is_write = req.is_write,
    };
    if (free_head_ != kNullSlot) {
        const uint32_t idx = free_head_;
        free_head_ = slots_[idx].next;
        slots_[idx] = q;
        return idx;
    }
    slots_.push_back(q);
    return static_cast<uint32_t>(slots_.size() - 1);
}

void
ChannelController::freeSlot(uint32_t idx)
{
    slots_[idx].next = free_head_;
    free_head_ = idx;
}

void
ChannelController::pushBack(SlotList &q, uint32_t idx)
{
    if (q.tail == kNullSlot)
        q.head = idx;
    else
        slots_[q.tail].next = idx;
    q.tail = idx;
    ++q.count;
}

void
ChannelController::unlink(SlotList &q, uint32_t idx, uint32_t prev)
{
    if (prev == kNullSlot)
        q.head = slots_[idx].next;
    else
        slots_[prev].next = slots_[idx].next;
    if (q.tail == idx)
        q.tail = prev;
    --q.count;
}

void
ChannelController::enqueue(DecodedRequest req, Tick now)
{
    enqueue(std::move(req.req), req.bank, req.row, now);
}

void
ChannelController::enqueue(DramRequest &&req, uint32_t bank, int64_t row,
                           Tick now)
{
    SlotList *q;
    if (req.is_write) {
        q = &write_q_;
    } else if (req.traffic == TrafficClass::Demand ||
               req.traffic == TrafficClass::Metadata) {
        q = &read_q_;
    } else {
        q = &bg_read_q_;
    }
    pushBack(*q, allocSlot(std::move(req), bank, row, now));
}

void
ChannelController::scan(Tick now)
{
    // Consume the wakeup; rearm() below computes the next one.
    next_scan_ = kTickNever;

    // Refresh all banks when the interval elapses.  Event-driven wakeups
    // make jumps past several t_refi intervals routine on idle channels,
    // so catch up interval by interval (each one is a real refresh the
    // device would have performed) instead of firing once and leaving
    // next_refresh_ permanently behind.
    while (now >= next_refresh_) {
        for (auto &bank : banks_)
            bank.refresh(now, params_);
        ++refreshes_;
        next_refresh_ += params_.toTicks(params_.t_refi);
    }

    // Read-priority write drain: writes normally use idle slots (no
    // ready read); a forced drain engages only when the write queue is
    // nearly full and releases after a short burst, so demand/metadata
    // reads never stall behind long write trains.
    if (write_q_.count >= drain_high_)
        draining_writes_ = true;
    else if (write_q_.count + drain_release_margin_ <= drain_high_)
        draining_writes_ = false;

    const bool issued = tryIssue(now);
    rearm(now, issued);
}

bool
ChannelController::bgPromotable(Tick now) const
{
    return bg_max_wait_ticks_ != 0 && bg_read_q_.count != 0 &&
        now >= slots_[bg_read_q_.head].enqueued + bg_max_wait_ticks_;
}

ChannelController::SlotList *
ChannelController::owningQueue(Tick now, bool *promoted)
{
    // Priority: forced write drain > aged background reads > critical
    // reads > opportunistic writes > background reads.  The first
    // non-empty class owns the slot; if none of its requests is
    // bank-ready the cycle idles rather than letting lower-priority
    // traffic occupy the bus ahead of it.  The aged-background tier is
    // the starvation fix: without it, sustained demand+writeback traffic
    // parks migration reads indefinitely.
    *promoted = false;
    if (draining_writes_ && write_q_.count != 0)
        return &write_q_;
    if (bgPromotable(now)) {
        *promoted = true;
        return &bg_read_q_;
    }
    if (read_q_.count != 0)
        return &read_q_;
    if (write_q_.count != 0)
        return &write_q_;
    if (bg_read_q_.count != 0)
        return &bg_read_q_;
    return nullptr;
}

bool
ChannelController::tryIssue(Tick now)
{
    bool promoted = false;
    SlotList *q = owningQueue(now, &promoted);
    scan_had_owner_ = q != nullptr;
    scan_owner_ready_ = kTickNever;
    if (q == nullptr)
        return false;

    uint32_t prev = kNullSlot;
    const uint32_t pick = selectFrFcfs(*q, now, &prev,
                                       &scan_owner_ready_);
    if (pick == kNullSlot)
        return false;
    unlink(*q, pick, prev);
    if (promoted)
        ++bg_promotions_;
    issue(slots_[pick], now);
    freeSlot(pick);
    return true;
}

uint32_t
ChannelController::selectFrFcfs(const SlotList &q, Tick now,
                                uint32_t *prev_out,
                                Tick *min_ready_out) const
{
    // Plain FR-FCFS within one queue: first ready row hit, else the
    // oldest ready request.  Priority across traffic classes is handled
    // by the queue split in tryIssue().  The window bound matches the
    // old deque scan: only the queue_depth oldest entries compete.
    uint32_t oldest_ready = kNullSlot;
    uint32_t oldest_prev = kNullSlot;
    uint32_t prev = kNullSlot;
    size_t n = 0;
    for (uint32_t i = q.head;
         i != kNullSlot && n < params_.queue_depth;
         prev = i, i = slots_[i].next, ++n) {
        const Queued &e = slots_[i];
        const Bank &bank = banks_[e.bank];
        if (bank.readyAt() > now) {
            *min_ready_out = std::min(*min_ready_out, bank.readyAt());
            continue;
        }
        if (bank.openRow() == e.row) {
            *prev_out = prev;
            return i;
        }
        if (oldest_ready == kNullSlot) {
            oldest_ready = i;
            oldest_prev = prev;
        }
    }
    *prev_out = oldest_prev;
    return oldest_ready;
}

void
ChannelController::issue(const Queued &q, Tick now)
{
    Bank &bank = banks_[q.bank];
    const Tick burst = params_.toTicks(params_.burstMemCycles(q.bytes));
    BankService svc = bank.serve(q.row, now, burst, bus_free_, params_);

    bus_free_ = svc.data_done;
    bus_busy_ticks_ += svc.data_done - svc.data_start;

    if (svc.row_hit)
        ++row_hits_;
    else
        ++row_misses_;
    if (svc.activated)
        ++activations_;

    if (q.is_write) {
        ++writes_served_;
    } else {
        ++reads_served_;
        const double delay =
            static_cast<double>(svc.data_start - q.enqueued);
        read_delay_sum_ += delay;
        if (read_delay_hist_)
            read_delay_hist_->sample(delay);
    }

    if (q.done != kNullSlot)
        events_.schedule(svc.data_done, q.done);
}

void
ChannelController::rearm(Tick now, bool issued)
{
    const Tick step = params_.toTicks(1);
    // The next mem-cycle boundary at or after a tick, so wakeups land
    // where the polled controller would have scanned.
    const auto align_up = [step](Tick t) {
        return ((t + step - 1) / step) * step;
    };

    Tick next = kTickNever;
    if (issued) {
        // One issue per memory cycle: anything still queued gets its
        // chance at the next boundary.
        if (read_q_.count != 0 || write_q_.count != 0 ||
            bg_read_q_.count != 0)
            next = align_up(now + 1);
    } else {
        // Nothing could issue: the owning queue's earliest chance is
        // when one of its banks becomes ready.  tryIssue() recorded that
        // tick while it scanned the window (every bank there is strictly
        // busy past now, or no queue owned the slot).
        if (scan_had_owner_ && scan_owner_ready_ != kTickNever)
            next = align_up(scan_owner_ready_);
    }

    // A queued background read may out-age the bound and preempt the
    // current owner before any of the above.
    if (bg_read_q_.count != 0 && bg_max_wait_ticks_ != 0) {
        const Tick deadline =
            slots_[bg_read_q_.head].enqueued + bg_max_wait_ticks_;
        if (deadline > now)
            next = std::min(next, align_up(deadline));
    }

    next = std::min(next, next_refresh_);
    requestScanAt(next);
}

std::vector<DecodedRequest>
ChannelController::queueSnapshot(int which) const
{
    const SlotList &q =
        which == 0 ? read_q_ : which == 1 ? bg_read_q_ : write_q_;
    std::vector<DecodedRequest> out;
    out.reserve(q.count);
    for (uint32_t i = q.head; i != kNullSlot; i = slots_[i].next) {
        const Queued &e = slots_[i];
        DecodedRequest copy;
        copy.req.addr = e.addr;
        copy.req.is_write = e.is_write;
        copy.req.bytes = e.bytes;
        copy.req.traffic = e.traffic;
        copy.req.core = e.core;
        copy.bank = e.bank;
        copy.row = e.row;
        copy.enqueued = e.enqueued;
        out.push_back(std::move(copy));
    }
    return out;
}

} // namespace dram
} // namespace silc
