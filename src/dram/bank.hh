/**
 * @file
 * Open-page DRAM bank state machine.
 *
 * Each bank tracks its open row and the earliest tick it can accept the
 * next composite command (ACT/PRE/CAS collapsed into one service request).
 * The controller asks a bank to serve a (row, read/write) access and gets
 * back the data-burst window, honouring tRCD/tCAS/tRP/tRAS and data bus
 * availability.
 */

#ifndef SILC_DRAM_BANK_HH
#define SILC_DRAM_BANK_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace silc {
namespace dram {

/** Result of serving one access from a bank. */
struct BankService
{
    /** First tick of the data burst on the channel data bus. */
    Tick data_start = 0;
    /** Tick at which the last beat has transferred (completion). */
    Tick data_done = 0;
    /** The access hit the open row. */
    bool row_hit = false;
    /** The access required an activation (row was closed or conflicted). */
    bool activated = false;
};

/** One DRAM bank with an open-page policy. */
class Bank
{
  public:
    Bank() = default;

    /** Row currently open, or -1 when precharged. */
    int64_t openRow() const { return open_row_; }

    /** Earliest tick the bank can begin another access. */
    Tick readyAt() const { return ready_; }

    /**
     * Serve an access to @p row.
     *
     * @param row       target row index
     * @param now       current tick (issue time)
     * @param burst_ticks  CPU ticks of data bus occupancy
     * @param bus_free  earliest tick the channel data bus is free
     * @param t         device timings
     * @return the computed service window; the caller must commit the
     *         returned data_done back into its bus bookkeeping.
     */
    BankService serve(int64_t row, Tick now, Tick burst_ticks,
                      Tick bus_free, const DramTimingParams &t);

    /**
     * Model a refresh: close the row and block the bank for tRFC.
     * @param now current tick.
     */
    void refresh(Tick now, const DramTimingParams &t);

  private:
    int64_t open_row_ = -1;
    Tick ready_ = 0;
    /** Tick of the most recent activation (for the tRAS constraint). */
    Tick activated_at_ = 0;
};

} // namespace dram
} // namespace silc

#endif // SILC_DRAM_BANK_HH
