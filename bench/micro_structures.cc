/**
 * @file
 * Microbenchmarks (google-benchmark) for SILC-FM's hardware-modelled
 * metadata structures: remap way lookup, victim selection, bit vector
 * history table, way predictor, and the full demand-resolution path.
 * These guard the simulator's own performance — the figure benches run
 * hundreds of millions of these operations.
 */

#include <benchmark/benchmark.h>

#include <deque>
#include <functional>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "core/bitvector_table.hh"
#include "core/predictor.hh"
#include "core/set_metadata.hh"
#include "core/silc_fm.hh"
#include "dram/dram_system.hh"

using namespace silc;
using namespace silc::core;

static void
BM_FindWay(benchmark::State &state)
{
    NmMetadata meta(2048, static_cast<uint32_t>(state.range(0)));
    Rng rng(1);
    // Populate every way with a plausible remap.
    for (uint64_t s = 0; s < meta.numSets(); ++s) {
        for (uint32_t w = 0; w < meta.associativity(); ++w) {
            meta.meta(meta.frameOf(s, w)).remap =
                2048 + s + w * meta.numSets();
        }
    }
    uint64_t set = 0;
    for (auto _ : state) {
        (void)_;
        set = (set + 1) % meta.numSets();
        benchmark::DoNotOptimize(
            meta.findWay(set, 2048 + set + meta.numSets()));
    }
}
BENCHMARK(BM_FindWay)->Arg(1)->Arg(4)->Arg(8);

static void
BM_VictimWay(benchmark::State &state)
{
    NmMetadata meta(2048, 4);
    Rng rng(2);
    for (uint64_t f = 0; f < meta.frames(); ++f) {
        WayMeta &m = meta.meta(f);
        m.remap = 2048 + f;
        m.locked = rng.chance(0.25);
        meta.touch(m);
    }
    uint64_t set = 0;
    for (auto _ : state) {
        (void)_;
        set = (set + 1) % meta.numSets();
        benchmark::DoNotOptimize(meta.victimWay(set));
    }
}
BENCHMARK(BM_VictimWay);

static void
BM_HistoryTable(benchmark::State &state)
{
    BitVectorTable table(uint64_t(1) << 20);
    Rng rng(3);
    SubblockVector bv;
    bv.set(3);
    bv.set(9);
    for (auto _ : state) {
        (void)_;
        const Addr pc = 0x400 + rng.below(64) * 4;
        const Addr addr = rng.below(1 << 20) * kSubblockSize;
        table.save(pc, addr, bv);
        benchmark::DoNotOptimize(table.lookup(pc, addr));
    }
}
BENCHMARK(BM_HistoryTable);

static void
BM_WayPredictor(benchmark::State &state)
{
    WayPredictor pred(4096);
    Rng rng(4);
    for (auto _ : state) {
        (void)_;
        const Addr pc = 0x400 + rng.below(64) * 4;
        const Addr addr = rng.below(1 << 22) * kSubblockSize;
        pred.update(pc, addr, static_cast<uint8_t>(rng.below(4)),
                    rng.chance(0.5));
        benchmark::DoNotOptimize(pred.predict(pc, addr));
    }
}
BENCHMARK(BM_WayPredictor);

static void
BM_SilcDemandAccess(benchmark::State &state)
{
    EventQueue events;
    dram::DramSystem nm(dram::hbm2Params(), 4_MiB, events);
    dram::DramSystem fm(dram::ddr3Params(), 16_MiB, events);
    policy::PolicyEnv env{&nm, &fm, &events};
    SilcFmParams params;
    params.hot_threshold = 12;
    SilcFmPolicy policy(env, params);
    Rng rng(5);
    Tick now = 0;
    const uint64_t blocks = policy.flatSpaceBytes() / kSubblockSize;
    ZipfSampler zipf(blocks, 0.8);
    for (auto _ : state) {
        (void)_;
        const Addr a = zipf.sample(rng) * kSubblockSize;
        policy.demandAccess(a, false, 0, 0x400, nullptr, now);
        now += 4;
        // Keep the DRAM queues bounded without timing the full drain.
        if ((now & 0xFFF) == 0) {
            state.PauseTiming();
            for (Tick t = now; t < now + 200'000; ++t) {
                nm.tick(t);
                fm.tick(t);
                events.runDue(t);
                if (nm.idle() && fm.idle() && events.empty())
                    break;
            }
            now += 200'000;
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_SilcDemandAccess);

namespace {

/**
 * The shape of the simulator's hottest event: a completion lambda
 * capturing a DemandCallback (a 32-byte std::function on libstdc++)
 * plus a word of context — too big for std::function's inline buffer,
 * comfortably inside EventCallback's 64-byte one.
 */
struct EventPayload
{
    std::function<void(Tick)> done;
    Tick context;
};

} // namespace

/**
 * schedule/runDue throughput with the capture held directly in the
 * EventCallback (the post-SmallFunction hot path).  Counter
 * "events/sec" is the figure the EventQueue optimisation targets;
 * compare against BM_EventScheduleStdFunction below for the before.
 */
static void
BM_EventScheduleInline(benchmark::State &state)
{
    EventQueue q;
    uint64_t sink = 0;
    std::function<void(Tick)> done = [&sink](Tick t) { sink += t; };
    Tick now = 0;
    for (auto _ : state) {
        (void)_;
        for (int i = 0; i < 64; ++i) {
            EventPayload payload{done, now};
            q.scheduleIn(now, 1 + (i & 3),
                         [payload = std::move(payload)](Tick t) mutable {
                             payload.done(t + payload.context);
                         });
        }
        now += 4;
        q.runDue(now);
    }
    benchmark::DoNotOptimize(sink);
    state.counters["events/sec"] = benchmark::Counter(
        static_cast<double>(q.executed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventScheduleInline);

/**
 * The pre-optimisation behavior: every callback funnelled through a
 * std::function first, so each schedule() heap-allocates the oversized
 * capture exactly as the old std::function-based EventCallback did.
 */
static void
BM_EventScheduleStdFunction(benchmark::State &state)
{
    EventQueue q;
    uint64_t sink = 0;
    std::function<void(Tick)> done = [&sink](Tick t) { sink += t; };
    Tick now = 0;
    for (auto _ : state) {
        (void)_;
        for (int i = 0; i < 64; ++i) {
            EventPayload payload{done, now};
            std::function<void(Tick)> boxed =
                [payload = std::move(payload)](Tick t) mutable {
                    payload.done(t + payload.context);
                };
            q.scheduleIn(now, 1 + (i & 3), std::move(boxed));
        }
        now += 4;
        q.runDue(now);
    }
    benchmark::DoNotOptimize(sink);
    state.counters["events/sec"] = benchmark::Counter(
        static_cast<double>(q.executed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventScheduleStdFunction);

/**
 * The old FR-FCFS pick: std::deque keyed queue, erase from the middle.
 * Kept as the baseline for BM_FrFcfsPickArena — the erase shifts
 * everything behind the picked element.
 */
static void
BM_FrFcfsPickDequeErase(benchmark::State &state)
{
    const size_t depth = static_cast<size_t>(state.range(0));
    std::deque<uint64_t> q;
    Rng rng(7);
    uint64_t next_id = 0;
    for (size_t i = 0; i < depth; ++i)
        q.push_back(next_id++);
    for (auto _ : state) {
        (void)_;
        // Pick from the middle (a row hit deep in the window), erase,
        // refill at the tail — the steady state of a saturated channel.
        const size_t pick = rng.below(q.size());
        benchmark::DoNotOptimize(q[pick]);
        q.erase(q.begin() + static_cast<ptrdiff_t>(pick));
        q.push_back(next_id++);
    }
}
BENCHMARK(BM_FrFcfsPickDequeErase)->Arg(8)->Arg(32)->Arg(128);

/**
 * The replacement: request arena with an intrusive singly-linked FIFO.
 * The pick unlinks in O(1) once found; the freed slot is recycled.
 */
static void
BM_FrFcfsPickArena(benchmark::State &state)
{
    const size_t depth = static_cast<size_t>(state.range(0));
    std::vector<uint64_t> slots;
    std::vector<uint32_t> next;
    constexpr uint32_t kNull = ~uint32_t(0);
    uint32_t head = kNull, tail = kNull, free_head = kNull;
    size_t count = 0;
    uint64_t next_id = 0;
    auto push = [&](uint64_t v) {
        uint32_t idx;
        if (free_head != kNull) {
            idx = free_head;
            free_head = next[idx];
            slots[idx] = v;
        } else {
            idx = static_cast<uint32_t>(slots.size());
            slots.push_back(v);
            next.push_back(kNull);
        }
        next[idx] = kNull;
        if (tail == kNull)
            head = idx;
        else
            next[tail] = idx;
        tail = idx;
        ++count;
    };
    Rng rng(8);
    for (size_t i = 0; i < depth; ++i)
        push(next_id++);
    for (auto _ : state) {
        (void)_;
        // Walk to a random window position (the FR-FCFS scan), unlink.
        const size_t target = rng.below(count);
        uint32_t prev = kNull, i = head;
        for (size_t n = 0; n < target; ++n) {
            prev = i;
            i = next[i];
        }
        benchmark::DoNotOptimize(slots[i]);
        if (prev == kNull)
            head = next[i];
        else
            next[prev] = next[i];
        if (tail == i)
            tail = prev;
        --count;
        next[i] = free_head;
        free_head = i;
        push(next_id++);
    }
}
BENCHMARK(BM_FrFcfsPickArena)->Arg(8)->Arg(32)->Arg(128);

/**
 * A saturated channel controller end to end: queues never empty, one
 * scan per memory cycle.  Counter "issues/sec" is the scheduling
 * throughput the event-driven rework targets.
 */
static void
BM_ControllerSaturatedScan(benchmark::State &state)
{
    dram::DramTimingParams p = dram::ddr3Params();
    p.t_refi = 0;
    EventQueue events;
    dram::ChannelController ctrl(p, events);
    Rng rng(9);
    const uint32_t banks = static_cast<uint32_t>(ctrl.numBanks());
    Tick now = 0;
    const Tick step = p.toTicks(1);
    Addr a = 0;
    for (auto _ : state) {
        (void)_;
        while (ctrl.queuedRequests() < p.queue_depth) {
            dram::DecodedRequest dec;
            dec.req.addr = (a += kSubblockSize);
            dec.req.is_write = rng.below(4) == 0;
            dec.req.traffic = dec.req.is_write
                ? dram::TrafficClass::Writeback
                : dram::TrafficClass::Demand;
            dec.bank = static_cast<uint32_t>(rng.below(banks));
            dec.row = static_cast<int64_t>(rng.below(8));
            ctrl.enqueue(std::move(dec), now);
        }
        ctrl.scan(now);
        events.runDue(now);
        now += step;
    }
    state.counters["issues/sec"] = benchmark::Counter(
        static_cast<double>(ctrl.readsServed() + ctrl.writesServed()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ControllerSaturatedScan);

/**
 * scheduleCancellable + cancel churn: the cancel/re-arm pattern an
 * event-driven wakeup consumer would generate at worst case (every
 * armed deadline superseded before it fires).  Tombstones are lazy, so
 * the cost to beat is one hash insert/erase per cancel.
 */
static void
BM_EventCancelRearm(benchmark::State &state)
{
    EventQueue q;
    uint64_t sink = 0;
    Tick now = 0;
    for (auto _ : state) {
        (void)_;
        EventId id = q.scheduleCancellable(
            now + 100, [&sink](Tick t) { sink += t; });
        for (int i = 0; i < 4; ++i) {
            q.cancel(id);
            id = q.scheduleCancellable(
                now + 10 + i, [&sink](Tick t) { sink += t; });
        }
        now += 16;
        q.runDue(now);
    }
    benchmark::DoNotOptimize(sink);
    state.counters["cancels/sec"] = benchmark::Counter(
        static_cast<double>(q.cancelled()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventCancelRearm);

static void
BM_DramDecode(benchmark::State &state)
{
    EventQueue events;
    dram::DramSystem sys(dram::ddr3Params(), 64_MiB, events);
    Rng rng(6);
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(
            sys.decode(rng.below(64_MiB / 64) * 64));
    }
}
BENCHMARK(BM_DramDecode);

BENCHMARK_MAIN();
