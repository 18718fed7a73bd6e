#include "cpu/core.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace cpu {

Core::Core(CoreId id, CoreParams params, trace::TraceSource &trace,
           MemoryPort &port)
    : id_(id), params_(params), trace_(trace), port_(port)
{
    silc_assert(params_.rob_entries > 0);
    silc_assert(params_.width > 0);
    rob_.resize(params_.rob_entries);
    if (isPowerOf2(params_.rob_entries))
        rob_mask_ = params_.rob_entries - 1;
}

void
Core::onLoadComplete(uint64_t seq, Tick when)
{
    // The entry must still be in flight: retire never pops an entry whose
    // ready_tick is kTickNever.
    silc_assert(seq >= head_seq_ && seq < tail_seq_);
    slot(seq).ready_tick = when;
    if (seq == head_seq_)
        stall_until_ = 0;
}

void
Core::retireWarmed(uint64_t instructions, uint64_t loads, uint64_t stores,
                   Tick last)
{
    silc_assert(!staged_ && retired_ + instructions <=
                                params_.instruction_budget);
    dispatched_ += instructions;
    retired_ += instructions;
    loads_ += loads;
    stores_ += stores;
    if (instructions > 0 && done())
        finish_tick_ = last;
}

void
Core::tick(Tick now)
{
    silc_assert(!paused_);
    if (done())
        return;

    // Fully stalled: ROB full behind an unready head.  The full logic
    // below would do exactly this pair of increments and nothing else,
    // so skip it until the head can retire (see stall_until_).
    if (stall_until_ > now) {
        ++retire_stalls_;
        ++rob_full_cycles_;
        return;
    }

    // ---- Retire: up to `width` ready instructions, in order. ----
    uint32_t retired_now = 0;
    while (retired_now < params_.width && head_seq_ < tail_seq_) {
        RobEntry &head = slot(head_seq_);
        if (head.ready_tick > now)
            break;
        head.ready_tick = kTickNever;
        ++head_seq_;
        ++retired_;
        ++retired_now;
        if (retired_ >= params_.instruction_budget) {
            finish_tick_ = now;
            return;
        }
    }
    if (retired_now == 0 && head_seq_ < tail_seq_)
        ++retire_stalls_;

    dispatch(now, 0);
}

void
Core::dispatch(Tick now, uint32_t dispatched_now)
{
    // ---- Dispatch: up to `width` instructions into the ROB. ----
    while (dispatched_now < params_.width) {
        if (tail_seq_ - head_seq_ >= params_.rob_entries) {
            ++rob_full_cycles_;
            break;
        }
        // Do not fetch beyond the budget.
        if (dispatched_ >= params_.instruction_budget)
            break;

        if (!staged_)
            staged_ = trace_.next();

        const trace::TraceInstruction &ins = *staged_;
        const uint64_t seq = tail_seq_;

        if (ins.is_mem) {
            // Allocate the ROB slot before issuing: hits may complete
            // synchronously and must find the entry in place.
            slot(seq).ready_tick = kTickNever;
            ++tail_seq_;

            AccessResult res;
            if (ins.is_write) {
                // Stores retire via the store buffer next cycle; the
                // access still flows through the hierarchy for traffic.
                slot(seq).ready_tick = now + 1;
                res = port_.accessPartitioned(id_, ins.vaddr, ins.pc,
                                              true, nullptr, now);
            } else {
                res = port_.accessPartitioned(
                    id_, ins.vaddr, ins.pc, false,
                    [this, seq](Tick when) { onLoadComplete(seq, when); },
                    now);
            }

            if (res == AccessResult::Deferred) {
                // Shared-state access captured by the hierarchy: freeze
                // mid-dispatch until the serial spine resolves it via
                // resumeTick() at this same tick.  The ROB slot stays
                // allocated; a Rejected verdict rolls it back there.
                paused_ = true;
                pause_is_write_ = ins.is_write;
                pause_dispatched_now_ = dispatched_now;
                pause_tick_ = now;
                return;
            }
            if (res == AccessResult::Rejected) {
                // Roll the slot back and stall this cycle.
                --tail_seq_;
                slot(seq).ready_tick = kTickNever;
                ++mem_stall_cycles_;
                break;
            }
            if (ins.is_write)
                ++stores_;
            else
                ++loads_;
        } else {
            slot(seq).ready_tick = now + 1;
            ++tail_seq_;
        }

        staged_.reset();
        ++dispatched_;
        ++dispatched_now;
    }

    detectStall(now);
}

void
Core::detectStall(Tick now)
{
    // Detect the fully-stalled state for the fast path above.  A
    // kTickNever head (load still in flight) is fine: onLoadComplete
    // resets stall_until_ the moment the head's data returns.
    if (tail_seq_ - head_seq_ >= params_.rob_entries &&
        slot(head_seq_).ready_tick > now) {
        stall_until_ = slot(head_seq_).ready_tick;
    }
}

void
Core::resumeTick(bool accepted)
{
    silc_assert(paused_);
    paused_ = false;
    const Tick now = pause_tick_;
    const uint64_t seq = tail_seq_ - 1;

    if (!accepted) {
        // Sequential MSHR-rejection path: roll the slot back, count the
        // stall, end the cycle (the dispatch loop would have broken).
        --tail_seq_;
        slot(seq).ready_tick = kTickNever;
        ++mem_stall_cycles_;
        detectStall(now);
        return;
    }

    if (pause_is_write_)
        ++stores_;
    else
        ++loads_;
    staged_.reset();
    ++dispatched_;
    dispatch(now, pause_dispatched_now_ + 1);
}

void
Core::snapshotSpec(BlobWriter &w) const
{
    // Only whole cycles are speculated past; a mid-dispatch pause is
    // resolved on the spine before any snapshot can be taken.
    silc_assert(!paused_);
    w.putU64(head_seq_);
    w.putU64(tail_seq_);
    // Only the live ROB window carries state: dispatch always writes a
    // slot's ready_tick before use, so retired slots need no capture.
    for (uint64_t seq = head_seq_; seq < tail_seq_; ++seq) {
        const uint64_t idx = rob_mask_ != 0 ? (seq & rob_mask_)
                                            : (seq % params_.rob_entries);
        w.putU64(rob_[idx].ready_tick);
    }
    w.putU64(stall_until_);
    w.putBool(staged_.has_value());
    if (staged_) {
        w.putBool(staged_->is_mem);
        w.putBool(staged_->is_write);
        w.putU64(staged_->vaddr);
        w.putU64(staged_->pc);
    }
    w.putU64(retired_);
    w.putU64(dispatched_);
    w.putU64(loads_);
    w.putU64(stores_);
    w.putU64(retire_stalls_);
    w.putU64(rob_full_cycles_);
    w.putU64(mem_stall_cycles_);
    w.putU64(finish_tick_);
}

void
Core::restoreSpec(BlobReader &r)
{
    paused_ = false;
    head_seq_ = r.getU64();
    tail_seq_ = r.getU64();
    silc_assert(tail_seq_ - head_seq_ <= params_.rob_entries);
    for (uint64_t seq = head_seq_; seq < tail_seq_; ++seq)
        slot(seq).ready_tick = r.getU64();
    stall_until_ = r.getU64();
    staged_.reset();
    if (r.getBool()) {
        trace::TraceInstruction ins;
        ins.is_mem = r.getBool();
        ins.is_write = r.getBool();
        ins.vaddr = r.getU64();
        ins.pc = r.getU64();
        staged_ = ins;
    }
    retired_ = r.getU64();
    dispatched_ = r.getU64();
    loads_ = r.getU64();
    stores_ = r.getU64();
    retire_stalls_ = r.getU64();
    rob_full_cycles_ = r.getU64();
    mem_stall_cycles_ = r.getU64();
    finish_tick_ = r.getU64();
}

} // namespace cpu
} // namespace silc
