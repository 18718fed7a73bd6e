/**
 * @file
 * Trace-driven core model: 4-wide dispatch/retire through a 128-entry
 * reorder buffer (Table II), with loads completing via memory-hierarchy
 * callbacks and stores retiring through an implicit store buffer.
 *
 * This is the standard "ROB-occupancy limit" model used by memory-system
 * studies: it exposes memory-level parallelism (multiple outstanding
 * misses) and stalls when the ROB fills behind a long-latency load —
 * exactly the behaviours that differentiate NM/FM placement schemes.
 */

#ifndef SILC_CPU_CORE_HH
#define SILC_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.hh"
#include "trace/generator.hh"

namespace silc {
namespace cpu {

/** Reorder-buffer entries (Table II). */
constexpr uint32_t kRobEntries = 128;
static_assert((kRobEntries & (kRobEntries - 1)) == 0,
              "ROB slots are indexed by mask");

/** Instructions dispatched and retired per cycle (Table II). */
constexpr uint32_t kWidth = 4;

/** Core configuration. */
struct CoreParams
{
    /** Instructions to retire before the core reports done. */
    uint64_t instruction_budget = 1'000'000;
};

/**
 * The memory hierarchy as seen by a core.
 *
 * access() may complete synchronously (cache hits invoke @p done before
 * returning) or asynchronously.  A false return means the hierarchy is
 * out of tracking resources (MSHRs) and the core must retry next cycle.
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Issue a memory access.
     *
     * @param core     issuing core
     * @param vaddr    virtual byte address
     * @param pc       program counter of the instruction
     * @param is_write store?
     * @param done     completion callback (tick when data is available)
     * @param now      current tick
     * @retval true    accepted (done will fire, possibly already has)
     * @retval false   resource stall; retry later
     */
    virtual bool access(CoreId core, Addr vaddr, Addr pc, bool is_write,
                        std::function<void(Tick)> done, Tick now) = 0;

    /**
     * Whether re-issuing the access that access() last refused for
     * @p core would be refused again, with no other effect.  A port that
     * returns true counts that refusal as access() would have, and the
     * core stalls the cycle without re-issuing.  The default says no,
     * so the core re-issues.
     */
    virtual bool stillRejected(CoreId core)
    {
        (void)core;
        return false;
    }
};

/** One trace-driven core. */
class Core
{
  public:
    Core(CoreId id, CoreParams params, trace::TraceSource &trace,
         MemoryPort &port);

    /** Advance one cycle: retire then dispatch. */
    void
    tick(Tick now)
    {
        if (done())
            return;
        // Fully stalled: ROB full behind an unready head.  advance()
        // would do exactly this increment and nothing else, so skip it
        // until the head can retire (see stall_until_).
        if (stall_until_ > now) {
            ++rob_full_cycles_;
            return;
        }
        advance(now);
    }

    /**
     * Functional-warming retire accounting.  In functional mode every
     * access is accepted and completes synchronously, so the warming
     * engine (System::runToBudget) reads the core's trace source and
     * issues its accesses itself, kWidth instructions per active
     * cycle, and only reports here what retired: @p instructions, of
     * which @p loads and @p stores accessed memory, the last of them in
     * cycle @p last.  Counts exactly what tick() would have for the same
     * stream, and the core reports done() — finishing at @p last — at
     * the same retired count.  No ROB state is touched.
     */
    void retireWarmed(uint64_t instructions, uint64_t loads,
                      uint64_t stores, Tick last);

    /** True while a fetched instruction waits for dispatch (a memory
     *  backpressure stall); the warming engine requires none. */
    bool hasStaged() const { return staged_.has_value(); }

    /** True once the instruction budget has fully retired. */
    bool done() const { return retired_ >= params_.instruction_budget; }

    /** Tick at which the budget retired (valid once done()). */
    Tick finishTick() const { return finish_tick_; }

    CoreId id() const { return id_; }
    uint64_t retired() const { return retired_; }
    uint64_t dispatched() const { return dispatched_; }
    uint64_t loads() const { return loads_; }
    uint64_t stores() const { return stores_; }

    /** Cycles in which dispatch was blocked by a full ROB. */
    uint64_t robFullCycles() const { return rob_full_cycles_; }

    /** Cycles in which dispatch was blocked by memory backpressure. */
    uint64_t memStallCycles() const { return mem_stall_cycles_; }

    /** All dispatch-blocked cycles (ROB full + memory backpressure). */
    uint64_t stallCycles() const
    {
        return rob_full_cycles_ + mem_stall_cycles_;
    }

    /** Current ROB occupancy. */
    uint32_t robOccupancy() const
    {
        return static_cast<uint32_t>(tail_seq_ - head_seq_);
    }

    /**
     * While this is above the current tick, tick() is exactly the
     * counters-only stall path (see stall_until_): the main loop may
     * fast-forward such cycles wholesale via addStalledCycles().
     */
    Tick stallUntil() const { return stall_until_; }

    /** Account @p n skipped fully-stalled cycles (see System::run). */
    void
    addStalledCycles(uint64_t n)
    {
        rob_full_cycles_ += n;
    }

    uint64_t instructionBudget() const
    {
        return params_.instruction_budget;
    }

    /**
     * Extend (or shrink) the retire target.  The sampling run loop
     * pauses the system at per-core instruction boundaries by walking
     * the budget forward between System::runToBudget() calls; at a
     * pause point the ROB is empty and the staged slot clear, so
     * re-entering tick() with a larger budget resumes dispatch exactly
     * where the trace left off.
     */
    void setInstructionBudget(uint64_t budget)
    {
        params_.instruction_budget = budget;
    }

  private:
    struct RobEntry
    {
        Tick ready_tick = kTickNever;
    };

    RobEntry &slot(uint64_t seq) { return rob_[seq & (kRobEntries - 1)]; }

    /** tick() past its two early returns: retire, then dispatch. */
    void advance(Tick now);

    void onLoadComplete(uint64_t seq, Tick when);

    CoreId id_;
    CoreParams params_;
    trace::TraceSource &trace_;
    MemoryPort &port_;

    std::array<RobEntry, kRobEntries> rob_{};
    uint64_t head_seq_ = 0;
    uint64_t tail_seq_ = 0;

    /**
     * Fully-stalled fast path: while the ROB is full and the head is not
     * ready, every cycle is exactly "count a ROB-full stall" — no
     * retire, no fetch, no dispatch.  When tick() detects
     * that state it records the head's ready tick here and subsequent
     * ticks take the counters-only path until the head can retire.
     * onLoadComplete() clears it when the head's load returns, so a
     * kTickNever in-flight head cannot park the core forever.
     */
    Tick stall_until_ = 0;

    /** An instruction whose access the port refused, kept for its
     *  re-issue; empty otherwise (advance() reads a freshly fetched
     *  instruction in place). */
    std::optional<trace::TraceInstruction> staged_;

    /** The port refused staged_'s access (see MemoryPort::stillRejected);
     *  cleared when it dispatches. */
    bool rejected_ = false;

    uint64_t retired_ = 0;
    uint64_t dispatched_ = 0;
    uint64_t loads_ = 0;
    uint64_t stores_ = 0;
    uint64_t rob_full_cycles_ = 0;
    uint64_t mem_stall_cycles_ = 0;
    Tick finish_tick_ = 0;
};

} // namespace cpu
} // namespace silc

#endif // SILC_CPU_CORE_HH
