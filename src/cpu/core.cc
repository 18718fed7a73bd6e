#include "cpu/core.hh"

#include "common/logging.hh"

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
    if (done())
        return;

    // Fully stalled: ROB full behind an unready head.  The full logic
    // below would do exactly this increment and nothing else, so skip
    // it until the head can retire (see stall_until_).
    if (stall_until_ > now) {
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

    // ---- Dispatch: up to `width` instructions into the ROB. ----
    uint32_t dispatched_now = 0;
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

            bool accepted;
            if (ins.is_write) {
                // Stores retire via the store buffer next cycle; the
                // access still flows through the hierarchy for traffic.
                slot(seq).ready_tick = now + 1;
                accepted = port_.access(id_, ins.vaddr, ins.pc, true,
                                        nullptr, now);
            } else {
                accepted = port_.access(
                    id_, ins.vaddr, ins.pc, false,
                    [this, seq](Tick when) { onLoadComplete(seq, when); },
                    now);
            }

            if (!accepted) {
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

    // Detect the fully-stalled state for the fast path above.  A
    // kTickNever head (load still in flight) is fine: onLoadComplete
    // resets stall_until_ the moment the head's data returns.
    if (tail_seq_ - head_seq_ >= params_.rob_entries &&
        slot(head_seq_).ready_tick > now) {
        stall_until_ = slot(head_seq_).ready_tick;
    }
}

} // namespace cpu
} // namespace silc
