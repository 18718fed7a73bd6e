/**
 * @file
 * The functional-warming engine behind System::runToBudget() in
 * functional mode: the segment split by core.
 *
 * Functional mode never rejects an access, so a segment's access order
 * is static.  Core c retires `width` instructions in every cycle it is
 * not blacked out (kWarmBlackoutCycles), cores in index order, so each
 * access's global position (cycle, core, slot) follows from that core's
 * stream alone.  The engine walks the segment in chunks of cycles, five
 * phases each:
 *
 *   P1 (per core)  generate the chunk's instructions from the core's
 *                  trace source and note first touches of its pages;
 *   S1 (serial)    allocate those pages' frames in global order;
 *   P2 (per core)  translation through the core's TLB slice, the L1d
 *                  hit or fill with its victim, and a record of every
 *                  L1d miss;
 *   S2 (serial)    the L2 half: merge the misses by position, run their
 *                  L2 lookups and fills, and record the policy calls
 *                  (demandAccess, writebacks) they make;
 *   T  (serial)    the policy tail: replay those calls, in order, at
 *                  their cycles.
 *
 * P1, S1 and P2 of chunk k+1 run on the pool while the calling thread
 * runs S2 of chunk k, and T of chunk k-1 runs as one more lane of that
 * P2 stage: the policy reads no L2 state and the L2 none of the
 * policy's, so all of them touch disjoint state.  Nothing else the
 * per-cycle loop ran can act in functional mode: no event is pending,
 * no request reaches a device, and System::setFunctionalMode() refuses
 * a policy that acts on tick().  DESIGN.md "Functional warming" has
 * the state split.
 */

#ifndef SILC_SIM_WARMING_HH
#define SILC_SIM_WARMING_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace silc {
namespace sim {

class ThreadPool;

/** A memory instruction of the chunk (P1 -> P2). */
struct WarmOp
{
    Addr vaddr;
    Addr pc;
    uint32_t cycle; ///< offset from the chunk's first cycle
    bool is_write;
};

/** The first touch of one of the core's pages (P1 -> S1). */
struct WarmTouch
{
    uint32_t cycle;
    uint64_t vpage;
};

/** An L1d miss (P2 -> S2). */
struct WarmMiss
{
    Addr paddr;
    Addr pc;
    Addr victim; ///< dirty L1d victim to write back, or kAddrInvalid
    uint32_t cycle;
    bool is_write;
};

/** A policy call of an L2 miss or an L2 victim (S2 -> T). */
struct WarmCall
{
    Addr addr; ///< the demand's subblock, or the written-back line
    Addr pc;   ///< demands only
    uint32_t cycle; ///< offset from the chunk's first cycle
    CoreId core;
    bool demand;   ///< demandAccess, else writeback
    bool is_write; ///< demands only
};

/**
 * One chunk's policy calls in global order.  Double-buffered like
 * WarmLane::misses: S2 fills one while T replays the other, and each
 * sits on cache lines of its own.
 */
struct alignas(64) WarmCalls
{
    std::vector<WarmCall> calls;
    Tick base = 0; ///< the chunk's first cycle
};

/**
 * One core's buffers and schedule.  Only the thread running the core's
 * P phases writes it, and it sits on cache lines of its own: lanes
 * sharing a line (even just their vector headers) false-share on every
 * push_back.
 */
struct alignas(64) WarmLane
{
    std::vector<WarmOp> ops;
    std::vector<WarmTouch> touches;
    /** Double-buffered: S2 drains one chunk's misses while P2 of the
     *  next chunk fills the other. */
    std::vector<WarmMiss> misses[2];

    // The segment's schedule.
    uint64_t remaining = 0;  ///< instructions left to retire
    Tick blackout_begin = 0; ///< the core sits out [begin, end)
    Tick blackout_end = 0;

    // P1's retire accounting for the current chunk.
    uint64_t instructions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    Tick last = 0; ///< cycle of the chunk's last instruction
};

/**
 * The lanes plus a two-stage fork-join over them: P1 on every lane,
 * then the serial S1 (run by whichever thread finishes the last P1
 * lane), then P2 on every lane and, if asked, the tail as one more P2
 * lane.  start() hands the stages to the pool's helpers; finish() makes
 * the caller work lanes too and returns once P2 is done — so the caller
 * can run S2 of the previous chunk between the two.
 */
class WarmEngine
{
  public:
    using LaneFn = std::function<void(uint32_t lane)>;

    /** @param width threads working lanes, the caller included; 1 runs
     *  everything inline in finish(). */
    WarmEngine(uint32_t lanes, unsigned width);
    ~WarmEngine();

    WarmEngine(const WarmEngine &) = delete;
    WarmEngine &operator=(const WarmEngine &) = delete;

    std::vector<WarmLane> &lanes() { return lanes_; }

    /** The policy calls recorded in buffer @p buf (0 or 1). */
    WarmCalls &calls(unsigned buf) { return calls_[buf]; }

    /** The work of the stages, for the following start()s. */
    void setStages(LaneFn p1, std::function<void()> s1, LaneFn p2,
                   std::function<void()> tail);

    /** Begin one chunk's P1, S1, P2 on the helpers; with @p tail, P2
     *  runs the tail too, as a lane claimed before the cores'. */
    void start(bool tail);

    /** Work lanes until P2 is done and every helper has left. */
    void finish();

  private:
    /** Claim and run lanes until both stages are done. */
    void work();

    std::vector<WarmLane> lanes_;
    WarmCalls calls_[2];
    LaneFn p1_;
    std::function<void()> s1_;
    LaneFn p2_;
    std::function<void()> tail_;
    /** 1 when the current P2 stage runs the tail, else 0. */
    uint32_t tail_lanes_ = 0;

    /** (stage << 32) | next unclaimed lane of that stage. */
    std::atomic<uint64_t> claim_{0};
    /** Lanes of the current stage finished so far. */
    std::atomic<uint32_t> finished_{0};
    /** Helpers that have not yet left work(). */
    std::atomic<uint32_t> helpers_{0};

    unsigned width_;
    std::unique_ptr<ThreadPool> pool_; ///< width - 1 helpers
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_WARMING_HH
