#include "cpu/core.hh"

#include "common/logging.hh"

namespace silc {
namespace cpu {

Core::Core(CoreId id, CoreParams params, trace::TraceSource &trace,
           MemoryPort &port)
    : id_(id), params_(params), trace_(trace), port_(port)
{
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
Core::advance(Tick now)
{
    // ---- Retire: up to kWidth ready instructions, in order. ----
    uint32_t retired_now = 0;
    while (retired_now < kWidth && head_seq_ < tail_seq_) {
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

    // ---- Dispatch: up to kWidth instructions into the ROB. ----
    uint32_t dispatched_now = 0;
    while (dispatched_now < kWidth) {
        if (tail_seq_ - head_seq_ >= kRobEntries) {
            ++rob_full_cycles_;
            break;
        }
        // Do not fetch beyond the budget.
        if (dispatched_ >= params_.instruction_budget)
            break;

        // A refused access the port would refuse again costs the same
        // stall cycle without the re-issue.
        if (rejected_ && port_.stillRejected(id_)) {
            ++mem_stall_cycles_;
            break;
        }
        // Fetch in place: read the instruction where next() returned
        // it, and copy it into staged_ only when the port refuses its
        // access.  next() writes its result with narrow stores; a
        // whole-struct copy right after the call (assigning next() to
        // staged_, say) reloads them with one wide load that cannot be
        // store-forwarded, a stall on every fetched instruction.  Check
        // the codegen (objdump -d) after touching this.
        const trace::TraceInstruction ins =
            staged_ ? *staged_ : trace_.next();
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
                rejected_ = true;
                staged_ = ins;
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
        rejected_ = false;
        ++dispatched_;
        ++dispatched_now;
    }

    // Detect the fully-stalled state for the fast path above.  A
    // kTickNever head (load still in flight) is fine: onLoadComplete
    // resets stall_until_ the moment the head's data returns.
    if (tail_seq_ - head_seq_ >= kRobEntries &&
        slot(head_seq_).ready_tick > now) {
        stall_until_ = slot(head_seq_).ready_tick;
    }
}

} // namespace cpu
} // namespace silc
