/**
 * @file
 * The request unit exchanged between flat-memory policies and a DRAM
 * system.  One request moves up to one burst of data (typically a 64B
 * subblock); large-block migrations are issued as trains of requests so
 * that they occupy queues, banks, and buses realistically.
 */

#ifndef SILC_DRAM_REQUEST_HH
#define SILC_DRAM_REQUEST_HH

#include <cstdint>

#include "common/event_queue.hh"
#include "common/types.hh"

namespace silc {
namespace dram {

/** What class of traffic a request belongs to (for bandwidth accounting). */
enum class TrafficClass : uint8_t
{
    Demand,     ///< on the critical path of an LLC miss
    Migration,  ///< swap/migration/restore traffic
    Metadata,   ///< remap-table/bit-vector reads and writes
    Writeback,  ///< LLC dirty evictions
};

/** Printable name of a traffic class. */
const char *trafficClassName(TrafficClass c);

/** A single DRAM access. */
struct DramRequest
{
    /** Device-local physical address. */
    Addr addr = 0;
    /** True for a write (no completion latency consumer). */
    bool is_write = false;
    /** Payload size in bytes (bursts are rounded up). */
    uint32_t bytes = static_cast<uint32_t>(kSubblockSize);
    /** Accounting class. */
    TrafficClass traffic = TrafficClass::Demand;
    /** Originating core (stats only). */
    CoreId core = 0;
    /**
     * When >= 0, bypass the address decode and use this channel; used by
     * SILC-FM's dedicated metadata channel (Section III-D).
     */
    int32_t force_channel = -1;
    /** Scheduled at the tick the data transfer completes (may be
     *  empty). */
    EventCallback on_complete;
};

} // namespace dram
} // namespace silc

#endif // SILC_DRAM_REQUEST_HH
