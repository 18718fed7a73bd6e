#include "dram/bank.hh"

#include <algorithm>

namespace silc {
namespace dram {

BankService
Bank::serve(int64_t row, Tick now, Tick burst_ticks, Tick bus_free,
            const DramTimingParams &t)
{
    BankService out;
    Tick start = std::max(now, ready_);

    Tick cas_issued;
    if (open_row_ == row) {
        // Row buffer hit: column access only.
        out.row_hit = true;
        cas_issued = start;
    } else if (open_row_ >= 0) {
        // Row conflict: precharge (after tRAS from activation) + activate.
        Tick pre_start =
            std::max(start, activated_at_ + t.toTicks(t.t_ras));
        Tick act_start = pre_start + t.toTicks(t.t_rp);
        activated_at_ = act_start;
        cas_issued = act_start + t.toTicks(t.t_rcd);
        out.activated = true;
    } else {
        // Bank precharged: activate only.
        activated_at_ = start;
        cas_issued = start + t.toTicks(t.t_rcd);
        out.activated = true;
    }

    Tick data_start = cas_issued + t.toTicks(t.t_cas);
    // The data burst must wait for the shared channel bus.
    data_start = std::max(data_start, bus_free);
    out.data_start = data_start;
    out.data_done = data_start + burst_ticks;

    open_row_ = row;
    // Column accesses pipeline: the bank can take its next CAS tCCD
    // after this one.  Burst serialization is enforced by the shared
    // channel data bus (bus_free), not the bank.
    ready_ = cas_issued + t.toTicks(t.t_ccd);
    return out;
}

void
Bank::refresh(Tick now, const DramTimingParams &t)
{
    open_row_ = -1;
    ready_ = std::max(ready_, now) + t.toTicks(t.t_rfc);
}

} // namespace dram
} // namespace silc
