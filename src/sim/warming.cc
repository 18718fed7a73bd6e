#include "sim/warming.hh"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/logging.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"

namespace silc {
namespace sim {

namespace {

/**
 * Instructions per chunk, summed over cores.  Bounds the per-chunk
 * buffers (24 bytes per memory instruction, 32 per L1d miss and per
 * policy call, two miss and two call buffers) to a few hundred KiB on
 * the Table III workloads, and sets how often the phases hand over:
 * about a thousand times for a 4-core, 10M-instruction warming pass.
 */
constexpr uint64_t kChunkInstructions = 32 * 1024;

constexpr uint64_t kStageP1 = 0;
constexpr uint64_t kStageP2 = 1;
constexpr uint64_t kStageDone = 2;

} // namespace

// ---- WarmEngine ----------------------------------------------------------

WarmEngine::WarmEngine(uint32_t lanes, unsigned width)
    : lanes_(lanes), width_(width)
{
    if (width_ >= 2)
        pool_ = std::make_unique<ThreadPool>(width_ - 1);
}

WarmEngine::~WarmEngine() = default;

void
WarmEngine::setStages(LaneFn p1, std::function<void()> s1, LaneFn p2,
                      std::function<void()> tail)
{
    p1_ = std::move(p1);
    s1_ = std::move(s1);
    p2_ = std::move(p2);
    tail_ = std::move(tail);
}

void
WarmEngine::start(bool tail)
{
    tail_lanes_ = tail ? 1 : 0;
    claim_.store(kStageP1 << 32, std::memory_order_relaxed);
    finished_.store(0, std::memory_order_relaxed);
    if (!pool_)
        return;
    helpers_.store(width_ - 1, std::memory_order_relaxed);
    for (unsigned i = 1; i < width_; ++i) {
        pool_->submit([this] {
            work();
            helpers_.fetch_sub(1, std::memory_order_release);
        });
    }
}

void
WarmEngine::finish()
{
    work();
    // A helper still reads the stage word on its way out; the next
    // start() must not reset it under it.
    while (helpers_.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
}

void
WarmEngine::work()
{
    const uint32_t n = static_cast<uint32_t>(lanes_.size());
    while (true) {
        const uint64_t c = claim_.fetch_add(1, std::memory_order_acq_rel);
        const uint64_t stage = c >> 32;
        const uint32_t lane = static_cast<uint32_t>(c);
        if (stage == kStageDone)
            return;
        const uint32_t lanes = stage == kStageP1 ? n : n + tail_lanes_;
        if (lane >= lanes) {
            // Every lane of the stage is claimed: wait for the thread
            // that finishes the last one to open the next stage.
            while (claim_.load(std::memory_order_acquire) >> 32 == stage)
                std::this_thread::yield();
            continue;
        }
        // The tail is the longest P2 lane, so it is claimed first.
        if (stage == kStageP1)
            p1_(lane);
        else if (lane < tail_lanes_)
            tail_();
        else
            p2_(lane - tail_lanes_);
        if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            lanes) {
            finished_.store(0, std::memory_order_relaxed);
            if (stage == kStageP1)
                s1_();
            claim_.store((stage + 1) << 32, std::memory_order_release);
        }
    }
}

// ---- System::runFunctional ----------------------------------------------

bool
System::runFunctional()
{
    // The engine reorders work across cycles (each core's private work
    // for a whole chunk runs before the shared tail of its first
    // cycle), which is exact only if nothing observes the cores between
    // cycles and nothing is in flight.
    if (recorder_)
        fatal("functional warming requires telemetry off (epoch probes "
              "read core counters between cycles)");
    for (const auto &core : cores_) {
        if (core->hasStaged())
            fatal("functional warming cannot start with a staged "
                  "instruction on core %u", core->id());
    }
    if (!events_.empty())
        fatal("functional warming requires an empty event queue (%zu "
              "events pending)", events_.size());

    const Tick start = cycle_;
    if (start >= cfg_.max_ticks)
        return false;

    const uint32_t n = cfg_.cores;
    const uint64_t width = cpu::kWidth;
    if (!warm_) {
        warm_ = std::make_unique<WarmEngine>(
            n, std::min<unsigned>(parallelThreadsFromEnv(), n));
    }
    std::vector<WarmLane> &lanes = warm_->lanes();

    // The segment's schedule: core c retires `width` instructions in
    // every cycle outside [c*B, (c+1)*B) until its budget is gone, and
    // the per-cycle loop stopped at the cycle the last core finished.
    Tick end = start;
    for (uint32_t c = 0; c < n; ++c) {
        WarmLane &lane = lanes[c];
        const cpu::Core &core = *cores_[c];
        lane.remaining =
            core.done() ? 0 : core.instructionBudget() - core.retired();
        lane.blackout_begin = start + c * kWarmBlackoutCycles;
        lane.blackout_end = lane.blackout_begin + kWarmBlackoutCycles;
        if (lane.remaining > 0) {
            const Tick active = (lane.remaining - 1) / width;
            const Tick skipped =
                active >= c * kWarmBlackoutCycles ? kWarmBlackoutCycles : 0;
            end = std::max(end, start + active + skipped);
        }
    }
    const bool all_done = end < cfg_.max_ticks;
    const Tick last = all_done ? end : cfg_.max_ticks - 1;
    const Tick span = std::max<Tick>(1, kChunkInstructions / (n * width));

    // ---- the chunk being prepared (P1, S1, P2) ----------------------
    Tick p_begin = start;
    Tick p_end = start;
    unsigned p_buf = 0;

    auto p1 = [&](uint32_t c) {
        WarmLane &lane = lanes[c];
        trace::TraceSource &trace = *traces_[c];
        lane.ops.clear();
        lane.touches.clear();
        lane.instructions = lane.loads = lane.stores = 0;
        for (Tick t = p_begin; t < p_end && lane.remaining > 0; ++t) {
            if (t >= lane.blackout_begin && t < lane.blackout_end) {
                t = std::min(lane.blackout_end, p_end) - 1;
                continue;
            }
            const auto off = static_cast<uint32_t>(t - p_begin);
            const uint64_t k = std::min(width, lane.remaining);
            for (uint64_t i = 0; i < k; ++i) {
                const trace::TraceInstruction ins = trace.next();
                if (!ins.is_mem)
                    continue;
                ++(ins.is_write ? lane.stores : lane.loads);
                lane.ops.push_back({ins.vaddr, ins.pc, off, ins.is_write});
                if (translation_->noteFirstTouch(c, ins.vaddr)) {
                    lane.touches.push_back(
                        {off, ins.vaddr >> kLargeBlockBits});
                }
            }
            lane.remaining -= k;
            lane.instructions += k;
            lane.last = t;
        }
    };

    // First touches in global (cycle, core, slot) order: a merge of the
    // lanes, each already in its core's order.
    std::vector<size_t> cursor(n);
    auto s1 = [&] {
        std::fill(cursor.begin(), cursor.end(), 0);
        while (true) {
            uint32_t best = n;
            uint32_t best_cycle = std::numeric_limits<uint32_t>::max();
            for (uint32_t c = 0; c < n; ++c) {
                const std::vector<WarmTouch> &ts = lanes[c].touches;
                if (cursor[c] < ts.size() &&
                    ts[cursor[c]].cycle < best_cycle) {
                    best = c;
                    best_cycle = ts[cursor[c]].cycle;
                }
            }
            if (best == n)
                return;
            translation_->allocatePage(
                best, lanes[best].touches[cursor[best]++].vpage);
        }
    };

    auto p2 = [&](uint32_t c) {
        WarmLane &lane = lanes[c];
        std::vector<WarmMiss> &misses = lane.misses[p_buf];
        misses.clear();
        for (const WarmOp &op : lane.ops) {
            const Addr paddr = translation_->translateMapped(c, op.vaddr);
            Addr victim = kAddrInvalid;
            if (!hierarchy_->warmL1(c, paddr, op.is_write, victim)) {
                misses.push_back(
                    {paddr, op.pc, victim, op.cycle, op.is_write});
            }
        }
    };

    // ---- S2: the L2 half, in the per-cycle loop's order -------------
    //
    // The misses, merged by (cycle, core), run their L2 lookups and
    // fills here and leave the policy calls warmShared() would make in
    // the chunk's call buffer.  The merge reads each lane's misses
    // through these copies, never the lane itself: P2 of the next chunk
    // is writing the lane's other buffer right next to it.
    std::vector<const WarmMiss *> head(n);
    std::vector<const WarmMiss *> stop(n);
    auto record = [&](Tick base, unsigned buf) {
        WarmCalls &rec = warm_->calls(buf);
        rec.base = base;
        rec.calls.clear();
        for (uint32_t c = 0; c < n; ++c) {
            const std::vector<WarmMiss> &ms = lanes[c].misses[buf];
            head[c] = ms.data();
            stop[c] = ms.data() + ms.size();
        }
        while (true) {
            uint32_t off = std::numeric_limits<uint32_t>::max();
            for (uint32_t c = 0; c < n; ++c) {
                if (head[c] != stop[c])
                    off = std::min(off, head[c]->cycle);
            }
            if (off == std::numeric_limits<uint32_t>::max())
                return;
            for (uint32_t c = 0; c < n; ++c) {
                for (; head[c] != stop[c] && head[c]->cycle == off;
                     ++head[c]) {
                    const WarmMiss &m = *head[c];
                    hierarchy_->warmL2(c, m.paddr, m.pc, m.is_write,
                                       m.victim, off, rec.calls);
                }
            }
        }
    };

    // ---- T: the policy tail, one chunk behind -----------------------
    //
    // The recorded calls, in order, at their cycles.  Nothing else the
    // per-cycle loop ran can act here: no event is pending, no request
    // reaches a device, and the policy does not act on tick()
    // (setFunctionalMode refuses such schemes).
    auto replay = [&](unsigned buf) {
        const WarmCalls &rec = warm_->calls(buf);
        for (const WarmCall &call : rec.calls) {
            const Tick t = rec.base + call.cycle;
            if (call.demand) {
                policy_->demandAccess(call.addr, call.is_write, call.core,
                                      call.pc, nullptr, t);
            } else {
                policy_->writeback(call.addr, call.core, t);
            }
        }
    };
    // The tail of chunk k runs while chunk k+2 is prepared, which fills
    // the buffers of k's parity: the tail replays calls(p_buf).
    warm_->setStages(p1, s1, p2, [&] { replay(p_buf); });

    // ---- the pipeline -----------------------------------------------
    //
    // While this thread runs S2 of chunk k, the helpers run the P
    // phases of chunk k+1, which touch only the lanes, the traces, the
    // private L1s and the translation, and T of chunk k-1, which
    // touches only the policy and its oracles.  Segment boundaries
    // (checkpoints) drain the pipeline: the last two tails run here.
    auto prepare = [&](unsigned buf, bool tail) {
        p_begin = p_end;
        p_end = std::min(p_begin + span, last + 1);
        p_buf = buf;
        warm_->start(tail);
    };
    auto retire = [&] {
        for (uint32_t c = 0; c < n; ++c) {
            const WarmLane &lane = lanes[c];
            cores_[c]->retireWarmed(lane.instructions, lane.loads,
                                    lane.stores, lane.last);
        }
    };

    prepare(0, false);
    warm_->finish();
    retire();
    bool behind = false; // the previous chunk's tail has not run
    unsigned buf = 0;
    while (true) {
        const Tick base = p_begin;
        buf = p_buf;
        const bool more = p_end <= last;
        if (more)
            prepare(buf ^ 1, behind);
        record(base, buf);
        if (!more)
            break;
        warm_->finish();
        retire();
        behind = true;
    }
    // The stages capture locals.
    warm_->setStages(nullptr, nullptr, nullptr, nullptr);
    if (behind)
        replay(buf ^ 1);
    replay(buf);
    silc_assert(events_.empty());

    cycle_ = all_done ? end : cfg_.max_ticks;
    return all_done;
}

} // namespace sim
} // namespace silc
