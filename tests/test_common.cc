/**
 * @file
 * Unit tests for the common substrate: types/address math, event queue,
 * statistics, RNG/Zipf, config parsing, and the subblock bit vector.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.hh"
#include "common/env.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/experiment.hh"

using namespace silc;

// ---- types / address math ----------------------------------------------

TEST(Types, Constants)
{
    EXPECT_EQ(kSubblockSize, 64u);
    EXPECT_EQ(kLargeBlockSize, 2048u);
    EXPECT_EQ(kSubblocksPerBlock, 32u);
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(2048), 11u);
    EXPECT_EQ(floorLog2(3), 1u);
}

TEST(Types, IsPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(96));
}

TEST(Types, Alignment)
{
    EXPECT_EQ(subblockAddr(0x12345), Addr(0x12340));
    EXPECT_EQ(largeBlockAddr(0x12345), Addr(0x12000));
    EXPECT_EQ(alignDown(127, 64), Addr(64));
}

TEST(Types, SubblockOffsetCoversBlock)
{
    // All 32 offsets appear exactly once per large block.
    std::map<uint32_t, int> seen;
    for (Addr a = 0; a < kLargeBlockSize; a += kSubblockSize)
        seen[subblockOffset(a)]++;
    EXPECT_EQ(seen.size(), kSubblocksPerBlock);
    for (auto [off, count] : seen) {
        EXPECT_LT(off, kSubblocksPerBlock);
        EXPECT_EQ(count, 1);
    }
}

TEST(Types, SubblockOffsetIgnoresPage)
{
    EXPECT_EQ(subblockOffset(5 * kLargeBlockSize + 7 * kSubblockSize),
              7u);
}

TEST(Types, SizeLiterals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(16_MiB, uint64_t(16) << 20);
    EXPECT_EQ(1_GiB, uint64_t(1) << 30);
}

// ---- event queue --------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });

    q.runDue(15);
    EXPECT_EQ(order, (std::vector<int>{1}));
    q.runDue(30);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreak)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i](Tick) { order.push_back(i); });
    q.runDue(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackReceivesScheduledTick)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&](Tick t) { seen = t; });
    q.runDue(100);
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, EventScheduledDuringDrainSameTickRuns)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&](Tick t) {
        ++fired;
        q.schedule(t, [&](Tick) { ++fired; });
    });
    q.runDue(5);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextEventTick)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTick(), kTickNever);
    q.schedule(9, [](Tick) {});
    EXPECT_EQ(q.nextEventTick(), 9u);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue q;
    for (Tick t = 1; t <= 4; ++t)
        q.schedule(t, [](Tick) {});
    q.runDue(4);
    EXPECT_EQ(q.executed(), 4u);
}

TEST(EventQueue, RecycledSlabSlotsKeepFifoTieBreak)
{
    // Drain a first batch so its slab slots go back on the free list,
    // then schedule a same-tick batch: the slots are reused in reverse,
    // but the events still fire in the order they were scheduled.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        q.schedule(1, [&order, i](Tick) { order.push_back(i); });
    q.runDue(1);
    ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    order.clear();
    for (int i = 0; i < 6; ++i)
        q.schedule(3, [&order, i](Tick) { order.push_back(i); });
    q.schedule(2, [&order](Tick) { order.push_back(-1); });
    q.runDue(3);
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, DrainThatGrowsTheSlabRunsEveryCallbackOnce)
{
    // Each event schedules two more until 2,000 have been scheduled,
    // far past the slab's initial capacity, so the slab reallocates
    // while a callback moved out of it is running.  Same-tick children
    // run in the same drain, in scheduling order.
    EventQueue q;
    std::vector<int> order;
    int scheduled = 0;
    std::function<void(int)> spawn = [&](int id) {
        ++scheduled;
        q.schedule(10, [&, id](Tick t) {
            EXPECT_EQ(t, 10u);
            order.push_back(id);
            for (int k = 0; k < 2 && scheduled < 2000; ++k)
                spawn(scheduled);
        });
    };
    spawn(0);
    EXPECT_EQ(q.runDue(10), 2000u);
    ASSERT_EQ(order.size(), 2000u);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ParkedCallbackOrderedWhenScheduled)
{
    // A callback parked before two same-tick events but scheduled after
    // them runs after them: ties break by scheduling order.
    EventQueue q;
    std::vector<int> order;
    const uint32_t parked =
        q.park([&order](Tick) { order.push_back(0); });
    q.schedule(4, [&order](Tick) { order.push_back(1); });
    q.schedule(4, [&order](Tick) { order.push_back(2); });
    EXPECT_EQ(q.size(), 2u);
    q.schedule(4, parked);
    EXPECT_EQ(q.nextEventTick(), 4u);
    q.runDue(4);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

// ---- small function ------------------------------------------------------

TEST(SmallFunction, InvokesAndReportsInlineStorage)
{
    int hits = 0;
    SmallFunction<void(Tick), 64> fn = [&hits](Tick t) {
        hits += static_cast<int>(t);
    };
    ASSERT_TRUE(static_cast<bool>(fn));
    EXPECT_TRUE(fn.storedInline());
    fn(3);
    fn(4);
    EXPECT_EQ(hits, 7);
}

TEST(SmallFunction, EmptyIsFalse)
{
    SmallFunction<void(Tick), 64> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    SmallFunction<void(Tick), 64> null_fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(SmallFunction, OversizedCaptureFallsBackToHeap)
{
    struct Big
    {
        uint64_t words[16];  // 128 bytes > the 64-byte buffer
    };
    Big big{};
    big.words[15] = 42;
    uint64_t seen = 0;
    SmallFunction<void(Tick), 64> fn = [big, &seen](Tick) {
        seen = big.words[15];
    };
    EXPECT_FALSE(fn.storedInline());
    fn(0);
    EXPECT_EQ(seen, 42u);

    // Small but more aligned than the pointer-aligned buffer.
    struct alignas(16) Wide
    {
        uint64_t words[2];
    };
    const Wide wide{{7, 8}};
    SmallFunction<void(Tick), 64> aligned = [wide, &seen](Tick) {
        seen = wide.words[1];
    };
    EXPECT_FALSE(aligned.storedInline());
    aligned(0);
    EXPECT_EQ(seen, 8u);
}

TEST(SmallFunction, MoveTransfersOwnership)
{
    auto counter = std::make_shared<int>(0);
    SmallFunction<void(Tick), 64> a = [counter](Tick) { ++*counter; };
    SmallFunction<void(Tick), 64> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b(0);
    EXPECT_EQ(*counter, 1);

    // Destroying the callable releases its captures.
    b = nullptr;
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(SmallFunction, HoldsMoveOnlyCallable)
{
    auto owned = std::make_unique<int>(9);
    SmallFunction<int(Tick), 64> fn =
        [owned = std::move(owned)](Tick t) {
            return *owned + static_cast<int>(t);
        };
    EXPECT_EQ(fn(1), 10);
}

// ---- stats ---------------------------------------------------------------

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(0.5);
    d.sample(9.5);
    d.sample(-1.0);
    d.sample(11.0);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[4], 1u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_DOUBLE_EQ(d.value(), 5.0);
}

// ---- rng -----------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ThresholdDrawsMatchUniformDraws)
{
    // chanceBelow(threshold(p)) must be uniform() < p, draw for draw.
    for (const double p : {0.0, 1e-300, 0.25, 0.3, 0.97, 1.0 - 0x1.0p-53,
                           1.0}) {
        Rng a(99);
        Rng b(99);
        const uint64_t t = Rng::threshold(p);
        uint64_t hits = 0;
        for (int i = 0; i < 1'000'000; ++i) {
            const bool want = a.uniform() < p;
            ASSERT_EQ(b.chanceBelow(t), want) << "p=" << p << " draw " << i;
            hits += want;
        }
        if (p == 0.0 || p == 1e-300) {
            EXPECT_EQ(hits, 0u);
        } else if (p == 1.0) {
            EXPECT_EQ(hits, 1'000'000u);
        }
    }
    EXPECT_EQ(Rng::threshold(-0.5), 0u);
    EXPECT_EQ(Rng::threshold(2.0), uint64_t(1) << 53);
    EXPECT_EQ(Rng::threshold(0.5), uint64_t(1) << 52);
}

TEST(Zipf, AlphaZeroIsUniform)
{
    Rng rng(5);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i)
        counts[z.sample(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(c, 5000, 500);
}

TEST(Zipf, SkewPrefersLowRanks)
{
    Rng rng(5);
    ZipfSampler z(1000, 1.0);
    uint64_t low = 0, total = 100000;
    for (uint64_t i = 0; i < total; ++i) {
        if (z.sample(rng) < 10)
            ++low;
    }
    // With alpha=1 over 1000 items, the top-10 ranks draw ~39% of
    // samples (H(10)/H(1000)); uniform would give 1%.
    EXPECT_GT(low, total / 5);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(3);
    ZipfSampler z(37, 0.8);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(z.sample(rng), 37u);
}

// ---- bit vector -------------------------------------------------------------

TEST(SubblockVector, StartsEmpty)
{
    SubblockVector bv;
    EXPECT_TRUE(bv.none());
    EXPECT_FALSE(bv.full());
    EXPECT_EQ(bv.count(), 0u);
}

TEST(SubblockVector, SetTestClear)
{
    SubblockVector bv;
    bv.set(0);
    bv.set(31);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(31));
    EXPECT_FALSE(bv.test(15));
    EXPECT_EQ(bv.count(), 2u);
    bv.clear(0);
    EXPECT_FALSE(bv.test(0));
    EXPECT_EQ(bv.count(), 1u);
}

TEST(SubblockVector, AllAndClearAll)
{
    SubblockVector bv = SubblockVector::all();
    EXPECT_TRUE(bv.full());
    EXPECT_EQ(bv.count(), 32u);
    bv.clearAll();
    EXPECT_TRUE(bv.none());
    bv.setAll();
    EXPECT_TRUE(bv.full());
}

TEST(SubblockVector, RawRoundTrip)
{
    SubblockVector bv;
    bv.set(3);
    bv.set(17);
    SubblockVector copy(bv.raw());
    EXPECT_EQ(copy, bv);
}

TEST(SubblockVector, ToStringMarksBits)
{
    SubblockVector bv;
    bv.set(1);
    std::string s = bv.toString();
    ASSERT_EQ(s.size(), 32u);
    EXPECT_EQ(s[0], '0');
    EXPECT_EQ(s[1], '1');
}

// ---- logging ----------------------------------------------------------------

TEST(Logging, FormatsPrintfStyle)
{
    EXPECT_EQ(logFormat("x=%d s=%s", 5, "hi"), "x=5 s=hi");
}

TEST(Logging, WarnIncrementsCounter)
{
    const uint64_t before = warnCount();
    warn("test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
}

// ---- additional property coverage ---------------------------------------------

TEST(Zipf, LowerRankNeverLessPopularOnAverage)
{
    Rng rng(21);
    ZipfSampler z(64, 0.9);
    std::vector<uint64_t> counts(64, 0);
    for (int i = 0; i < 200'000; ++i)
        counts[z.sample(rng)]++;
    // Compare coarse halves to avoid noise: the first half must get
    // clearly more than the second.
    uint64_t lo = 0, hi = 0;
    for (int i = 0; i < 32; ++i)
        lo += counts[i];
    for (int i = 32; i < 64; ++i)
        hi += counts[i];
    EXPECT_GT(lo, 2 * hi);
}

TEST(EventQueue, InterleavedScheduleAndDrain)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t = 0; t < 50; ++t) {
        q.schedule(t * 2 + 1, [&](Tick when) { fired.push_back(when); });
        q.runDue(t * 2);
    }
    q.runDue(1000);
    ASSERT_EQ(fired.size(), 50u);
    for (size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i]);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue q;
    q.runDue(100);
    EXPECT_DEATH(q.schedule(50, [](Tick) {}), "past");
}

TEST(SubblockVector, IndependenceOfBits)
{
    SubblockVector bv;
    for (uint32_t i = 0; i < kSubblocksPerBlock; i += 2)
        bv.set(i);
    for (uint32_t i = 0; i < kSubblocksPerBlock; ++i)
        EXPECT_EQ(bv.test(i), i % 2 == 0);
    EXPECT_EQ(bv.count(), 16u);
}

// ---- env knob parsing ----------------------------------------------------

namespace {

/** RAII environment variable for the env-parsing tests. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }

  private:
    const char *name_;
};

} // namespace

TEST(Env, UnsetReturnsFallback)
{
    unsetenv("SILC_TEST_KNOB");
    EXPECT_EQ(envPositiveCount("SILC_TEST_KNOB", 42), 42u);
    EXPECT_EQ(envThreadCount("SILC_TEST_KNOB", 3), 3u);
}

TEST(Env, PlainDecimalParses)
{
    ScopedEnv e("SILC_TEST_KNOB", "17");
    EXPECT_EQ(envPositiveCount("SILC_TEST_KNOB", 1), 17u);
    ScopedEnv t("SILC_TEST_THREADS", "12");
    EXPECT_EQ(envThreadCount("SILC_TEST_THREADS", 1), 12u);
    EXPECT_EQ(parsePositiveCount("--seed", "77"), 77u);
}

TEST(EnvDeath, EmptyValueFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", "");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, LeadingWhitespaceFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", " 4");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, TrailingWhitespaceFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", "4 ");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, HexPrefixFatal)
{
    // "0x10" must not silently read as 0 (or as 16), nor "4abc" as 4:
    // trailing junk.
    ScopedEnv e("SILC_TEST_KNOB", "0x10");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
    ScopedEnv t("SILC_TEST_THREADS", "4abc");
    EXPECT_DEATH(envThreadCount("SILC_TEST_THREADS", 1),
                 "SILC_TEST_THREADS");
}

TEST(EnvDeath, ZeroFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", "0");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, NegativeFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", "-4");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, OverflowFatal)
{
    // Larger than UINT64_MAX: strtoull saturates with ERANGE.
    ScopedEnv e("SILC_TEST_KNOB", "99999999999999999999999999");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, AboveMaxValueFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", "11");
    EXPECT_DEATH(envPositiveCount("SILC_TEST_KNOB", 1, 10),
                 "SILC_TEST_KNOB");
}

TEST(EnvDeath, ThreadCountCapFatal)
{
    ScopedEnv e("SILC_TEST_KNOB", "100000");
    EXPECT_DEATH(envThreadCount("SILC_TEST_KNOB", 1), "SILC_TEST_KNOB");
}

// The same check applies to command-line counts (fuzz_check's flags):
// no size suffixes, no hex, no zero, no sign.

TEST(EnvDeath, CountTextRejectsBadValues)
{
    for (const char *text : {"1k", "0x10", "0", "-1"}) {
        EXPECT_DEATH(parsePositiveCount("--seed", text),
                     std::string("--seed.*'") + text + "'")
            << text;
    }
}

// The knobs of removed subsystems (the intra-simulation windowed loop,
// the multi-tenant trace layer, sampled early stopping) fail loudly for
// any value, so a stale script cannot believe it still sets one.

TEST(EnvDeath, RemovedKnobsFatal)
{
    for (const char *knob :
         {"SILC_SIM_THREADS", "SILC_CORE_LANES", "SILC_SPEC_HORIZON",
          "SILC_TENANTS", "SILC_TENANT_CHURN", "SILC_SAMPLE_MIN_WINDOWS",
          "SILC_SAMPLE_CI_TARGET", "SILC_TELEMETRY", "SILC_JSON"}) {
        for (const char *value : {"1", "0", ""}) {
            ScopedEnv e(knob, value);
            EXPECT_EXIT(sim::ExperimentOptions::fromEnv(),
                        ::testing::ExitedWithCode(1),
                        std::string(knob) + " was removed")
                << knob << "=" << value;
        }
    }
    // The early-stopping knobs point at the one that sets the window
    // count, the telemetry switch at the export that records series and
    // SILC_JSON at the flag that names that export's path.
    {
        ScopedEnv e("SILC_SAMPLE_CI_TARGET", "0.05");
        EXPECT_DEATH(sim::ExperimentOptions::fromEnv(),
                     "SILC_SAMPLE_PERIOD");
    }
    for (const char *knob : {"SILC_TELEMETRY", "SILC_JSON"}) {
        ScopedEnv e(knob, "1");
        EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "--json")
            << knob;
    }
}

// The seed and epoch knobs are positive decimal counts and the flag
// knob (SILC_CHECK) is exactly 0 or 1: size suffixes, hex, signs and any
// other flag value are fatal and name the variable.

TEST(EnvDeath, SeedEpochAndFlagKnobsRejectBadValues)
{
    const std::pair<const char *, std::vector<const char *>> cases[] = {
        {"SILC_SEED", {"0", "-1", "1k", "0x10"}},
        {"SILC_EPOCH_TICKS", {"0", "abc"}},
        {"SILC_CHECK", {"2", "-1", ""}},
    };
    for (const auto &[knob, values] : cases) {
        for (const char *value : values) {
            ScopedEnv e(knob, value);
            EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), knob)
                << knob << "=" << value;
        }
    }
}

// SILC_SCHEME is validated eagerly against the scheme registry so a
// typo fails at startup, not minutes into a bench matrix.

TEST(EnvDeath, SchemeUnknownFatal)
{
    ScopedEnv e("SILC_SCHEME", "alloy");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SCHEME");
}

TEST(EnvDeath, SchemeEmptyFatal)
{
    ScopedEnv e("SILC_SCHEME", "");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SCHEME");
}

TEST(EnvDeath, SchemeJunkFatal)
{
    // Case matters: registry names are lowercase.
    ScopedEnv e("SILC_SCHEME", "SILC-FM");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SCHEME");
}

// SILC_WORKLOAD is checked against the Table III names the same way.

TEST(EnvDeath, WorkloadUnknownOrEmptyFatal)
{
    for (const char *value : {"nope", ""}) {
        ScopedEnv e("SILC_WORKLOAD", value);
        EXPECT_DEATH(sim::ExperimentOptions::fromEnv(),
                     std::string("SILC_WORKLOAD: unknown workload '") +
                         value + "' .*: bwaves, cactus, .*, soplex")
            << value;
    }
}

TEST(Env, WorkloadValidNameParses)
{
    unsetenv("SILC_WORKLOAD");
    EXPECT_FALSE(sim::ExperimentOptions::fromEnv().workload.has_value());
    ScopedEnv e("SILC_WORKLOAD", "lbm");
    EXPECT_EQ(sim::ExperimentOptions::fromEnv().workload, "lbm");
}

TEST(Env, SchemeValidNameParses)
{
    ScopedEnv e("SILC_SCHEME", "dramcache");
    EXPECT_EQ(sim::ExperimentOptions::fromEnv().scheme, "dramcache");
}

TEST(Env, SchemeAliasParses)
{
    // Aliases pass validation; resolution to the canonical scheme
    // happens at policy-construction time via the registry.
    ScopedEnv e("SILC_SCHEME", "cameo");
    EXPECT_EQ(sim::ExperimentOptions::fromEnv().scheme, "cameo");
}

// ---- distribution percentiles / differencing -----------------------------

TEST(Stats, PercentileOfEmptyDistributionIsZero)
{
    stats::Distribution d(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
}

TEST(Stats, PercentileOfSingleSample)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(3.0);
    // Every quantile lands inside the one populated bucket [2, 4).
    for (double p : {0.01, 0.5, 0.99}) {
        EXPECT_GE(d.percentile(p), 2.0);
        EXPECT_LE(d.percentile(p), 4.0);
    }
}

TEST(Stats, PercentileClampsOutOfRangeP)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(5.0);
    EXPECT_DOUBLE_EQ(d.percentile(-1.0), d.percentile(0.0));
    EXPECT_DOUBLE_EQ(d.percentile(2.0), d.percentile(1.0));
}

TEST(Stats, PercentileSaturatesAtRangeEdges)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(-5.0); // underflow
    d.sample(15.0); // overflow
    EXPECT_DOUBLE_EQ(d.percentile(0.25), 0.0);  // min()
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 10.0); // max()
}

TEST(Stats, DistributionMinusYieldsWindowSamples)
{
    stats::Distribution early(0.0, 10.0, 5);
    early.sample(1.0);
    early.sample(-2.0);
    stats::Distribution late = early; // snapshot
    late.sample(5.0);
    late.sample(5.5);
    late.sample(12.0);

    const stats::Distribution delta = late.minus(early);
    EXPECT_EQ(delta.samples(), 3u);
    EXPECT_EQ(delta.underflows(), 0u);
    EXPECT_EQ(delta.overflows(), 1u);
    EXPECT_EQ(delta.buckets()[2], 2u);
    // Mean of the window-only samples: (5 + 5.5 + 12) / 3.
    EXPECT_NEAR(delta.value(), 22.5 / 3.0, 1e-12);
}

TEST(Stats, DistributionMinusSelfIsEmpty)
{
    stats::Distribution d(0.0, 10.0, 4);
    d.sample(1.0);
    const stats::Distribution delta = d.minus(d);
    EXPECT_EQ(delta.samples(), 0u);
    EXPECT_DOUBLE_EQ(delta.percentile(0.5), 0.0);
}

TEST(Rng, StateRoundTrip)
{
    Rng a(123);
    (void)a.next();
    (void)a.next();
    const auto saved = a.state();
    Rng b(999);
    b.setState(saved);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.next(), b.next());
}
