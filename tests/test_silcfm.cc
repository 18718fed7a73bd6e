/**
 * @file
 * Unit and property tests for SILC-FM: the metadata structures
 * (set-associative frames, bit vector history table, predictor, aging
 * counters, bandwidth balancer) and the policy itself — every Table I
 * scenario, interleaved swapping, restore, locking/unlocking,
 * associativity, bypassing and mapping integrity.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.hh"
#include "core/activity_monitor.hh"
#include "core/bandwidth_balancer.hh"
#include "core/bitvector_table.hh"
#include "core/predictor.hh"
#include "core/set_metadata.hh"
#include "core/silc_fm.hh"
#include "dram/dram_system.hh"

using namespace silc;
using namespace silc::core;
using silc::policy::Location;
using silc::policy::PolicyEnv;

// ---- NmMetadata ------------------------------------------------------------

TEST(SetMetadata, GeometryAndMapping)
{
    NmMetadata meta(512, 4);
    EXPECT_EQ(meta.frames(), 512u);
    EXPECT_EQ(meta.numSets(), 128u);
    EXPECT_EQ(meta.setOf(700), 700u % 128);
    EXPECT_EQ(meta.frameOf(3, 2), 3u * 4 + 2);
    EXPECT_EQ(meta.setOfFrame(14), 3u);
    EXPECT_EQ(meta.wayOfFrame(14), 2u);
}

TEST(SetMetadata, FindWayMatchesRemap)
{
    NmMetadata meta(16, 4);
    meta.meta(meta.frameOf(2, 1)).remap = 1000;
    EXPECT_EQ(meta.findWay(2, 1000), 1);
    EXPECT_EQ(meta.findWay(2, 999), -1);
    EXPECT_EQ(meta.findWay(1, 1000), -1);
}

TEST(SetMetadata, VictimPrefersInvalidThenLru)
{
    NmMetadata meta(8, 4);
    // Fill ways 0..2, leave way 3 invalid.
    for (uint32_t w = 0; w < 3; ++w) {
        WayMeta &m = meta.meta(meta.frameOf(0, w));
        m.remap = 100 + w;
        meta.touch(m);
    }
    EXPECT_EQ(meta.victimWay(0), 3);

    // All valid: LRU (way 1 touched first after refresh of others).
    WayMeta &m3 = meta.meta(meta.frameOf(0, 3));
    m3.remap = 103;
    meta.touch(m3);
    meta.touch(meta.meta(meta.frameOf(0, 0)));
    meta.touch(meta.meta(meta.frameOf(0, 2)));
    EXPECT_EQ(meta.victimWay(0), 1);
}

TEST(SetMetadata, LockedWaysNeverVictims)
{
    NmMetadata meta(4, 4);
    for (uint32_t w = 0; w < 4; ++w) {
        WayMeta &m = meta.meta(meta.frameOf(0, w));
        m.remap = 100 + w;
        m.locked = true;
    }
    EXPECT_EQ(meta.victimWay(0), -1);
    meta.meta(meta.frameOf(0, 2)).locked = false;
    EXPECT_EQ(meta.victimWay(0), 2);
    EXPECT_EQ(meta.lockedWays(), 3u);
}

TEST(SetMetadata, AgingHalvesCounters)
{
    NmMetadata meta(4, 2);
    meta.meta(0).nm_counter = 40;
    meta.meta(0).fm_counter = 7;
    meta.ageCounters();
    EXPECT_EQ(meta.meta(0).nm_counter, 20);
    EXPECT_EQ(meta.meta(0).fm_counter, 3);
}

TEST(SetMetadata, DirectMappedDegenerate)
{
    NmMetadata meta(8, 1);
    EXPECT_EQ(meta.numSets(), 8u);
    meta.meta(5).remap = 2048 + 5;
    EXPECT_EQ(meta.findWay(5, 2048 + 5), 0);
}

TEST(SetMetadata, BadGeometryIsFatal)
{
    EXPECT_DEATH(NmMetadata(7, 4), "divisible");
    EXPECT_DEATH(NmMetadata(8, 0), "associativity");
}

// ---- BitVectorTable -----------------------------------------------------------

TEST(BitVectorTable, SaveAndRecall)
{
    BitVectorTable table(1024);
    SubblockVector bv;
    bv.set(1);
    bv.set(17);
    table.save(0x400, 0x10000, bv);
    EXPECT_EQ(table.lookup(0x400, 0x10000), bv);
    EXPECT_EQ(table.saves(), 1u);
    EXPECT_EQ(table.hits(), 1u);
}

TEST(BitVectorTable, MissReturnsEmpty)
{
    BitVectorTable table(1024);
    EXPECT_TRUE(table.lookup(0x999, 0x888).none());
    EXPECT_EQ(table.hits(), 0u);
    EXPECT_EQ(table.lookups(), 1u);
}

TEST(BitVectorTable, EmptyVectorsNotStored)
{
    BitVectorTable table(1024);
    table.save(0x400, 0x10000, SubblockVector{});
    EXPECT_EQ(table.saves(), 0u);
    EXPECT_TRUE(table.lookup(0x400, 0x10000).none());
}

TEST(BitVectorTable, DistinctSignaturesDistinctSlots)
{
    BitVectorTable table(1u << 16);
    SubblockVector a, b;
    a.set(0);
    b.set(31);
    table.save(0x400, 0x10000, a);
    table.save(0x404, 0x20000, b);
    EXPECT_EQ(table.lookup(0x400, 0x10000), a);
    EXPECT_EQ(table.lookup(0x404, 0x20000), b);
}

TEST(BitVectorTable, PowerOfTwoEnforced)
{
    EXPECT_DEATH(BitVectorTable(1000), "power of two");
}

// ---- WayPredictor ----------------------------------------------------------------

TEST(Predictor, ColdEntriesInvalid)
{
    WayPredictor pred(4096);
    EXPECT_FALSE(pred.predict(0x400, 0x123456).valid);
}

TEST(Predictor, RemembersLastOutcome)
{
    WayPredictor pred(4096);
    pred.update(0x400, 0x10000, 2, true);
    WayPrediction p = pred.predict(0x400, 0x10000);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.way, 2);
    EXPECT_TRUE(p.in_fm);
    pred.update(0x400, 0x10000, 1, false);
    p = pred.predict(0x400, 0x10000);
    EXPECT_EQ(p.way, 1);
    EXPECT_FALSE(p.in_fm);
}

TEST(Predictor, SamePageSharesEntry)
{
    // The model indexes by large block, so two subblocks of one page
    // train the same entry.
    WayPredictor pred(4096);
    pred.update(0x400, 0x10000, 3, false);
    WayPrediction p = pred.predict(0x400, 0x10040);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.way, 3);
}

TEST(Predictor, AccuracyBookkeeping)
{
    WayPredictor pred(4096);
    pred.recordOutcome(true, true);
    pred.recordOutcome(false, true);
    EXPECT_EQ(pred.predictions(), 2u);
    EXPECT_EQ(pred.wayHits(), 1u);
    EXPECT_EQ(pred.locationHits(), 2u);
}

// ---- activity monitor ----------------------------------------------------------

TEST(ActivityMonitor, SaturatingIncrement)
{
    AgingCounterOps ops(6);
    EXPECT_EQ(ops.max(), 63);
    EXPECT_EQ(ops.increment(0), 1);
    EXPECT_EQ(ops.increment(62), 63);
    EXPECT_EQ(ops.increment(63), 63);
}

TEST(ActivityMonitor, AgingShiftsRight)
{
    EXPECT_EQ(AgingCounterOps::age(63), 31);
    EXPECT_EQ(AgingCounterOps::age(1), 0);
}

TEST(ActivityMonitor, ScheduleFiresEveryInterval)
{
    AgingSchedule sched(100);
    int sweeps = 0;
    for (int i = 0; i < 1000; ++i) {
        if (sched.onAccess())
            ++sweeps;
    }
    EXPECT_EQ(sweeps, 10);
    EXPECT_EQ(sched.sweeps(), 10u);
    EXPECT_EQ(sched.accesses(), 1000u);
}

// ---- bandwidth balancer -----------------------------------------------------------

TEST(Balancer, EngagesAboveTarget)
{
    BandwidthBalancer bal(true, 0.8, 100);
    for (int i = 0; i < 100; ++i)
        bal.record(i < 90);   // 90% from NM
    EXPECT_TRUE(bal.bypassing());
    EXPECT_DOUBLE_EQ(bal.lastWindowRate(), 0.9);
}

TEST(Balancer, ReleasesBelowTarget)
{
    BandwidthBalancer bal(true, 0.8, 100);
    for (int i = 0; i < 100; ++i)
        bal.record(i < 90);
    ASSERT_TRUE(bal.bypassing());
    for (int i = 0; i < 100; ++i)
        bal.record(i < 50);
    EXPECT_FALSE(bal.bypassing());
}

TEST(Balancer, ExactTargetDoesNotBypass)
{
    BandwidthBalancer bal(true, 0.8, 100);
    for (int i = 0; i < 100; ++i)
        bal.record(i < 80);
    EXPECT_FALSE(bal.bypassing());
}

TEST(Balancer, DisabledNeverBypasses)
{
    BandwidthBalancer bal(false, 0.8, 10);
    for (int i = 0; i < 1000; ++i)
        bal.record(true);
    EXPECT_FALSE(bal.bypassing());
    EXPECT_EQ(bal.windowsElapsed(), 0u);
}

// ---- SilcFmPolicy ------------------------------------------------------------------

namespace {

class SilcFixture : public ::testing::Test
{
  protected:
    SilcFixture()
    {
        dram::DramTimingParams nm_p = dram::hbm2Params();
        dram::DramTimingParams fm_p = dram::ddr3Params();
        nm_ = std::make_unique<dram::DramSystem>(nm_p, 1_MiB, events_);
        fm_ = std::make_unique<dram::DramSystem>(fm_p, 4_MiB, events_);
        env_.nm = nm_.get();
        env_.fm = fm_.get();
        env_.events = &events_;
    }

    SilcFmParams
    defaultParams()
    {
        SilcFmParams p;
        p.hot_threshold = 8;          // easy to reach in unit tests
        p.aging_interval = 1'000'000; // effectively off unless wanted
        p.bypass_window = 1u << 30;   // effectively off unless wanted
        return p;
    }

    std::unique_ptr<SilcFmPolicy>
    make(SilcFmParams p)
    {
        return std::make_unique<SilcFmPolicy>(env_, p);
    }

    Tick
    demand(SilcFmPolicy &policy, Addr a, Tick now, Addr pc = 0x400)
    {
        // The completion callback outlives this frame (it fires from
        // the DRAM event path during drain()), so the landing slot
        // must be owned by the callback, not a captured stack local.
        auto done = std::make_shared<Tick>(kTickNever);
        policy.demandAccess(a, false, 0, pc,
                            [done](Tick t) { *done = t; }, now);
        return *done;
    }

    void
    drain(Tick start = 0)
    {
        for (Tick t = start; t < start + 40'000'000; ++t) {
            nm_->tick(t);
            fm_->tick(t);
            events_.runDue(t);
            if (nm_->idle() && fm_->idle() && events_.empty())
                return;
        }
        FAIL() << "DRAM did not drain";
    }

    void
    checkBijective(const SilcFmPolicy &policy)
    {
        std::set<std::pair<bool, Addr>> seen;
        for (Addr a = 0; a < policy.flatSpaceBytes();
             a += kSubblockSize) {
            const Location loc = policy.locate(a);
            ASSERT_TRUE(
                seen.insert({loc.in_nm, loc.device_addr}).second)
                << "collision at flat " << a;
        }
    }

    /** First FM page that maps to set 0 (page id). */
    uint64_t
    fmPageInSet(const SilcFmPolicy &p, uint64_t set, int nth = 0) const
    {
        const uint64_t nm_pages = 1_MiB / kLargeBlockSize;
        const uint64_t sets = p.metadata().numSets();
        uint64_t page = nm_pages;
        int found = 0;
        while (true) {
            if (page % sets == set) {
                if (found == nth)
                    return page;
                ++found;
            }
            ++page;
        }
    }

    EventQueue events_;
    std::unique_ptr<dram::DramSystem> nm_;
    std::unique_ptr<dram::DramSystem> fm_;
    PolicyEnv env_;
};

} // namespace

TEST_F(SilcFixture, FlatSpaceIsNmPlusFm)
{
    auto p = make(defaultParams());
    EXPECT_EQ(p->flatSpaceBytes(), 5_MiB);
    EXPECT_EQ(p->metadata().frames(), 512u);
    EXPECT_EQ(p->metadata().numSets(), 128u);
}

// Table I row 4 ("mismatch, 0, yes"): untouched native data serviced
// from NM.
TEST_F(SilcFixture, TableI_NativeResidentServicedFromNm)
{
    auto p = make(defaultParams());
    const Addr native = 3 * kLargeBlockSize + 2 * kSubblockSize;
    EXPECT_TRUE(p->locate(native).in_nm);
    demand(*p, native, 0);
    EXPECT_EQ(p->nmServiced(), 1u);
    EXPECT_EQ(p->subblockSwaps(), 0u);
    drain();
}

// Table I row 2 ("match, 0"): FM page has a way but the subblock is
// still in FM; it is swapped in.
TEST_F(SilcFixture, TableI_RemapMatchBitClearSwapsIn)
{
    auto p = make(defaultParams());
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr a = page * kLargeBlockSize;
    const Addr b = a + kSubblockSize;
    demand(*p, a, 0);               // allocates a way, swaps subblock 0
    EXPECT_TRUE(p->locate(a).in_nm);
    EXPECT_FALSE(p->locate(b).in_nm);
    demand(*p, b, 100);             // remap match, bit clear
    EXPECT_TRUE(p->locate(b).in_nm);
    EXPECT_EQ(p->subblockSwaps(), 2u);
    checkBijective(*p);
    drain();
}

// Table I row 1 ("match, 1"): swapped-in subblock serviced from NM.
TEST_F(SilcFixture, TableI_RemapMatchBitSetServicedFromNm)
{
    auto p = make(defaultParams());
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr a = page * kLargeBlockSize;
    demand(*p, a, 0);
    const uint64_t swaps = p->subblockSwaps();
    demand(*p, a, 100);
    EXPECT_EQ(p->subblockSwaps(), swaps);   // no new movement
    EXPECT_EQ(p->nmServiced(), 1u);
    drain();
}

// Table I row 3 ("mismatch, 1, NM address"): the native subblock was
// displaced; servicing it swaps it back.
TEST_F(SilcFixture, TableI_DisplacedNativeSwapsBack)
{
    auto p = make(defaultParams());
    const uint64_t fm_page = fmPageInSet(*p, 0);
    const Addr fm_a = fm_page * kLargeBlockSize;
    demand(*p, fm_a, 0);
    // The way chosen is some frame in set 0; its native page is the
    // frame id itself.
    const int way = p->metadata().findWay(0, fm_page);
    ASSERT_GE(way, 0);
    const uint64_t frame = p->metadata().frameOf(0, way);
    const Addr native = frame * kLargeBlockSize;   // same offset 0
    EXPECT_FALSE(p->locate(native).in_nm);   // displaced to FM
    demand(*p, native, 100);
    EXPECT_TRUE(p->locate(native).in_nm);    // swapped back
    EXPECT_FALSE(p->locate(fm_a).in_nm);     // FM subblock went home
    checkBijective(*p);
    drain();
}

// Table I rows 5/6 ("mismatch, FM address"): a different FM page claims
// the set; the current interleave is restored first.
TEST_F(SilcFixture, TableI_ConflictRestoresThenSwaps)
{
    SilcFmParams params = defaultParams();
    params.associativity = 1;   // force the conflict
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t page_a = fmPageInSet(*p, 7, 0);
    const uint64_t page_b = page_a + sets;   // same set, different page
    const Addr a = page_a * kLargeBlockSize;
    const Addr b = page_b * kLargeBlockSize + 3 * kSubblockSize;
    demand(*p, a, 0);
    ASSERT_TRUE(p->locate(a).in_nm);
    demand(*p, b, 100);
    EXPECT_EQ(p->restores(), 1u);
    EXPECT_FALSE(p->locate(a).in_nm);   // restored home
    EXPECT_TRUE(p->locate(b).in_nm);
    checkBijective(*p);
    drain();
}

TEST_F(SilcFixture, AssociativityAvoidsConflictRestore)
{
    SilcFmParams params = defaultParams();
    params.associativity = 4;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t page_a = fmPageInSet(*p, 7, 0);
    // Four pages of the same set coexist in four ways.
    for (int i = 0; i < 4; ++i) {
        demand(*p, (page_a + i * sets) * kLargeBlockSize,
               static_cast<Tick>(i) * 100);
    }
    EXPECT_EQ(p->restores(), 0u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(
            p->locate((page_a + i * sets) * kLargeBlockSize).in_nm);
    }
    checkBijective(*p);
    drain();
}

TEST_F(SilcFixture, HotBlockLocksAndPinsFully)
{
    SilcFmParams params = defaultParams();
    params.hot_threshold = 4;
    params.lock_full_fetch_min_used = 1;   // paper semantics: full remap
    auto p = make(params);
    const uint64_t page = fmPageInSet(*p, 0);
    // Touch several distinct subblocks so the block is dense enough for
    // the full lock fetch, then cross the threshold.
    for (uint32_t s = 0; s < 10; ++s)
        demand(*p, page * kLargeBlockSize + s * kSubblockSize, s * 50);
    EXPECT_GE(p->locks(), 1u);
    // Fully remapped: every subblock of the page is NM-resident.
    for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
        EXPECT_TRUE(
            p->locate(page * kLargeBlockSize + s * kSubblockSize)
                .in_nm);
    }
    EXPECT_TRUE(p->verifyIntegrity());
    checkBijective(*p);
    drain();
}

TEST_F(SilcFixture, SparseHotBlockPinsWithoutFullFetch)
{
    SilcFmParams params = defaultParams();
    params.hot_threshold = 4;
    params.lock_full_fetch_min_used = 8;
    auto p = make(params);
    const uint64_t page = fmPageInSet(*p, 0);
    // Hammer a single subblock: hot but sparse.
    for (int i = 0; i < 8; ++i)
        demand(*p, page * kLargeBlockSize, i * 50);
    ASSERT_GE(p->locks(), 1u);
    // Pinned, but only the used subblock is resident.
    EXPECT_TRUE(p->locate(page * kLargeBlockSize).in_nm);
    EXPECT_FALSE(
        p->locate(page * kLargeBlockSize + 5 * kSubblockSize).in_nm);
    EXPECT_TRUE(p->verifyIntegrity());
    drain();
}

TEST_F(SilcFixture, LockedWayResistsConflicts)
{
    SilcFmParams params = defaultParams();
    params.associativity = 1;
    params.hot_threshold = 4;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t hot = fmPageInSet(*p, 3, 0);
    const uint64_t cold = hot + sets;
    for (uint32_t s = 0; s < 10; ++s)
        demand(*p, hot * kLargeBlockSize + s * kSubblockSize, s * 50);
    ASSERT_GE(p->locks(), 1u);
    // A conflicting page cannot interleave: all ways locked.
    demand(*p, cold * kLargeBlockSize, 1000);
    EXPECT_GE(p->allWaysLockedEvents(), 1u);
    EXPECT_FALSE(p->locate(cold * kLargeBlockSize).in_nm);
    // The hot page is still fully resident.
    EXPECT_TRUE(p->locate(hot * kLargeBlockSize).in_nm);
    drain();
}

TEST_F(SilcFixture, AgingUnlocksColdBlocks)
{
    SilcFmParams params = defaultParams();
    params.hot_threshold = 4;
    params.aging_interval = 64;
    auto p = make(params);
    const uint64_t page = fmPageInSet(*p, 0);
    for (uint32_t s = 0; s < 10; ++s)
        demand(*p, page * kLargeBlockSize + s * kSubblockSize, s * 50);
    ASSERT_GE(p->locks(), 1u);
    // Unrelated traffic ages the counters until the lock clears.
    const uint64_t other = fmPageInSet(*p, 5);
    for (int i = 0; i < 400; ++i)
        demand(*p, other * kLargeBlockSize, 1000 + i);
    EXPECT_GE(p->unlocks(), 1u);
    EXPECT_TRUE(p->verifyIntegrity());
    drain();
}

TEST_F(SilcFixture, NativeHotPageLocksWithoutRemap)
{
    SilcFmParams params = defaultParams();
    params.hot_threshold = 4;
    auto p = make(params);
    const Addr native = 5 * kLargeBlockSize;
    for (int i = 0; i < 6; ++i)
        demand(*p, native, i * 10);
    EXPECT_GE(p->locks(), 1u);
    EXPECT_TRUE(p->verifyIntegrity());
    drain();
}

TEST_F(SilcFixture, HistoryVectorDrivesBatchFetch)
{
    SilcFmParams params = defaultParams();
    params.associativity = 1;
    params.enable_locking = false;
    params.history_min_bits = 4;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t page_a = fmPageInSet(*p, 9, 0);
    const uint64_t page_b = page_a + sets;
    // Build a dense usage pattern on page_a.
    for (uint32_t s = 0; s < 6; ++s)
        demand(*p, page_a * kLargeBlockSize + s * kSubblockSize, s * 50);
    // Conflict: page_b evicts page_a, saving its vector.
    demand(*p, page_b * kLargeBlockSize, 1'000);
    ASSERT_GE(p->restores(), 1u);
    // page_a returns: the history vector fetches its subblocks.
    demand(*p, page_a * kLargeBlockSize, 2'000);
    EXPECT_GT(p->historyFetchedSubblocks(), 0u);
    for (uint32_t s = 0; s < 6; ++s) {
        EXPECT_TRUE(
            p->locate(page_a * kLargeBlockSize + s * kSubblockSize)
                .in_nm)
            << "subblock " << s;
    }
    checkBijective(*p);
    drain();
}

TEST_F(SilcFixture, SparseHistoryVectorIsNotFetched)
{
    SilcFmParams params = defaultParams();
    params.associativity = 1;
    params.enable_locking = false;
    params.history_min_bits = 12;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t page_a = fmPageInSet(*p, 9, 0);
    const uint64_t page_b = page_a + sets;
    for (uint32_t s = 0; s < 3; ++s)   // only 3 bits: sparse
        demand(*p, page_a * kLargeBlockSize + s * kSubblockSize, s * 50);
    demand(*p, page_b * kLargeBlockSize, 1'000);
    demand(*p, page_a * kLargeBlockSize, 2'000);
    EXPECT_EQ(p->historyFetchedSubblocks(), 0u);
    drain();
}

TEST_F(SilcFixture, BypassStopsSwapsAboveTarget)
{
    SilcFmParams params = defaultParams();
    params.bypass_window = 16;
    params.bypass_target = 0.5;
    auto p = make(params);
    // Warm one subblock, then hammer it so the rate crosses the target.
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr hot = page * kLargeBlockSize;
    demand(*p, hot, 0);
    for (int i = 1; i <= 32; ++i)
        demand(*p, hot, i * 10);
    ASSERT_TRUE(p->balancer().bypassing());
    // A new FM page is now serviced from FM without interleaving.
    const uint64_t other = fmPageInSet(*p, 1);
    const uint64_t swaps = p->subblockSwaps();
    demand(*p, other * kLargeBlockSize, 10'000);
    EXPECT_EQ(p->subblockSwaps(), swaps);
    EXPECT_GE(p->bypassedAccesses(), 1u);
    EXPECT_FALSE(p->locate(other * kLargeBlockSize).in_nm);
    drain();
}

TEST_F(SilcFixture, BypassDisabledNeverBypasses)
{
    SilcFmParams params = defaultParams();
    params.enable_bypass = false;
    auto p = make(params);
    const uint64_t page = fmPageInSet(*p, 0);
    for (int i = 0; i < 64; ++i)
        demand(*p, page * kLargeBlockSize, i * 10);
    EXPECT_EQ(p->bypassedAccesses(), 0u);
    drain();
}

TEST_F(SilcFixture, PredictorTrainsOnStableMapping)
{
    auto p = make(defaultParams());
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr a = page * kLargeBlockSize;
    for (int i = 0; i < 20; ++i)
        demand(*p, a, i * 100, 0x777);
    // After the first access the mapping is stable; the page-indexed
    // predictor should be nearly always right.
    EXPECT_GT(p->predictor().locationHits(),
              p->predictor().predictions() * 3 / 4);
    drain();
}

TEST_F(SilcFixture, MetadataTrafficOnDedicatedChannel)
{
    auto p = make(defaultParams());
    demand(*p, 0, 0);
    drain();
    const auto meta = static_cast<size_t>(dram::TrafficClass::Metadata);
    EXPECT_GT(nm_->traffic().read[meta], 0u);
}

TEST_F(SilcFixture, NoMetadataTrafficWhenIdealised)
{
    SilcFmParams params = defaultParams();
    params.model_metadata_traffic = false;
    auto p = make(params);
    demand(*p, 0, 0);
    demand(*p, 2_MiB, 10);
    drain();
    const auto meta = static_cast<size_t>(dram::TrafficClass::Metadata);
    EXPECT_EQ(nm_->traffic().read[meta], 0u);
}

TEST_F(SilcFixture, DemandCompletesWithCallback)
{
    auto p = make(defaultParams());
    Tick done = kTickNever;
    p->demandAccess(0, false, 0, 0x400, [&](Tick t) { done = t; }, 0);
    for (Tick t = 0; t < 1'000'000 && done == kTickNever; ++t) {
        nm_->tick(t);
        fm_->tick(t);
        events_.runDue(t);
    }
    EXPECT_NE(done, kTickNever);
    EXPECT_GT(done, 0u);
}

/** Property sweep: random storms at every associativity keep the
 *  mapping bijective and the metadata invariants intact. */
class SilcStorm : public SilcFixture,
                  public ::testing::WithParamInterface<uint32_t>
{
};

TEST_P(SilcStorm, RandomStormKeepsIntegrity)
{
    SilcFmParams params = defaultParams();
    params.associativity = GetParam();
    params.hot_threshold = 6;
    params.aging_interval = 500;
    params.bypass_window = 256;
    params.history_min_bits = 4;
    auto p = make(params);
    Rng rng(77 + GetParam());
    Tick now = 0;
    for (int i = 0; i < 6000; ++i) {
        const Addr a = rng.below(p->flatSpaceBytes() / 64) * 64;
        demand(*p, a, now, 0x400 + rng.below(32) * 4);
        now += 11;
    }
    EXPECT_TRUE(p->verifyIntegrity());
    checkBijective(*p);
    drain(now);
}

INSTANTIATE_TEST_SUITE_P(Assoc, SilcStorm,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<uint32_t> &i) {
                             return "way" + std::to_string(i.param);
                         });

/** Zipf-skewed storm: hot pages end up locked, integrity holds. */
TEST_F(SilcFixture, SkewedStormLocksHotPages)
{
    SilcFmParams params = defaultParams();
    params.hot_threshold = 6;
    params.aging_interval = 100'000;
    auto p = make(params);
    Rng rng(5);
    ZipfSampler zipf(p->flatSpaceBytes() / kLargeBlockSize, 1.2);
    Tick now = 0;
    for (int i = 0; i < 20'000; ++i) {
        const uint64_t page = zipf.sample(rng);
        const Addr a = page * kLargeBlockSize +
            rng.below(kSubblocksPerBlock) * kSubblockSize;
        demand(*p, a, now);
        now += 5;
    }
    EXPECT_GT(p->locks(), 0u);
    EXPECT_GT(p->accessRate(), 0.3);
    EXPECT_TRUE(p->verifyIntegrity());
    checkBijective(*p);
    drain(now);
}

// ---- additional policy edges ---------------------------------------------------

TEST_F(SilcFixture, WritebackFollowsCurrentResidency)
{
    auto p = make(defaultParams());
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr a = page * kLargeBlockSize;
    demand(*p, a, 0);   // now NM-resident
    drain();
    const auto wb = static_cast<size_t>(dram::TrafficClass::Writeback);
    const uint64_t nm_before = nm_->traffic().write[wb];
    p->writeback(a, 0, 2'000'000);
    drain(2'000'000);
    EXPECT_EQ(nm_->traffic().write[wb] - nm_before, kSubblockSize);
}

TEST_F(SilcFixture, DirectMappedMatchesPaperExample)
{
    // Figure 2's walkthrough: two subblocks (F, H) of an FM block swap
    // into the corresponding positions of an NM frame; the evicted
    // native subblocks (B, D) are then found at the FM block's home.
    SilcFmParams params = defaultParams();
    params.associativity = 1;
    params.enable_history_fetch = false;
    auto p = make(params);
    const uint64_t fm_page = fmPageInSet(*p, 0);
    const Addr f = fm_page * kLargeBlockSize + 1 * kSubblockSize;
    const Addr h = fm_page * kLargeBlockSize + 3 * kSubblockSize;
    demand(*p, f, 0);
    demand(*p, h, 100);
    EXPECT_TRUE(p->locate(f).in_nm);
    EXPECT_TRUE(p->locate(h).in_nm);
    // Frame 0 hosts the interleave (set 0, way 0); its native page is 0.
    const Addr b = 0 * kLargeBlockSize + 1 * kSubblockSize;
    const Addr d = 0 * kLargeBlockSize + 3 * kSubblockSize;
    EXPECT_FALSE(p->locate(b).in_nm);
    EXPECT_FALSE(p->locate(d).in_nm);
    // Untouched positions of the native page stay put.
    EXPECT_TRUE(p->locate(0).in_nm);
    drain();
}

TEST_F(SilcFixture, NoValidBitNeeded)
{
    // "SILC-FM does not have a valid bit at block granularity because
    // unlike caches, there is always data in NM": every flat address
    // locates somewhere even before any access.
    auto p = make(defaultParams());
    for (Addr a = 0; a < p->flatSpaceBytes(); a += 64 * 1024) {
        const Location loc = p->locate(a);
        if (loc.in_nm)
            EXPECT_LT(loc.device_addr, nm_->capacity());
        else
            EXPECT_LT(loc.device_addr, fm_->capacity());
    }
}

TEST_F(SilcFixture, MetadataAddressesStayInCapacityAcrossSizes)
{
    for (uint32_t assoc : {1u, 2u, 4u}) {
        SilcFmParams params = defaultParams();
        params.associativity = assoc;
        auto p = make(params);
        // Hammer enough distinct sets to cover the metadata range.
        Rng rng(assoc);
        for (int i = 0; i < 500; ++i)
            demand(*p, rng.below(p->flatSpaceBytes() / 64) * 64, i * 3);
        drain();   // would panic inside DramSystem on a range violation
    }
}

TEST_F(SilcFixture, CountersSaturateAtWidth)
{
    SilcFmParams params = defaultParams();
    params.counter_bits = 6;
    params.hot_threshold = 63;
    params.enable_locking = false;
    auto p = make(params);
    const uint64_t page = fmPageInSet(*p, 0);
    for (int i = 0; i < 200; ++i)
        demand(*p, page * kLargeBlockSize, i * 10);
    const int way = p->metadata().findWay(0, page);
    ASSERT_GE(way, 0);
    EXPECT_EQ(p->metadata().meta(p->metadata().frameOf(0, way))
                  .fm_counter,
              63);
    drain();
}

TEST_F(SilcFixture, ThresholdAboveCounterMaxIsFatal)
{
    SilcFmParams params = defaultParams();
    params.counter_bits = 4;   // max 15
    params.hot_threshold = 50;
    EXPECT_DEATH(make(params), "counter maximum");
}

TEST_F(SilcFixture, AccessRateDefinitionMatchesEquationOne)
{
    auto p = make(defaultParams());
    const uint64_t page = fmPageInSet(*p, 0);
    demand(*p, 0, 0);                          // NM native
    demand(*p, page * kLargeBlockSize, 10);    // FM (miss, swaps)
    demand(*p, page * kLargeBlockSize, 20);    // NM (swapped)
    EXPECT_EQ(p->demandRequests(), 3u);
    EXPECT_EQ(p->nmServiced(), 2u);
    EXPECT_NEAR(p->accessRate(), 2.0 / 3.0, 1e-12);
    drain();
}

// ---- Figure 3-style associativity + locking interplay ---------------------------

TEST_F(SilcFixture, LockedAndUnlockedCoexistInOneSet)
{
    // Figure 3 of the paper: a locked hot page occupies one way while
    // unlocked pages keep interleaving through the remaining ways.
    SilcFmParams params = defaultParams();
    params.associativity = 4;
    params.hot_threshold = 4;
    params.lock_full_fetch_min_used = 1;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t hot = fmPageInSet(*p, 2, 0);

    for (uint32_t s = 0; s < 6; ++s)
        demand(*p, hot * kLargeBlockSize + s * kSubblockSize, s * 20);
    ASSERT_GE(p->locks(), 1u);

    // Three more pages of the same set still get ways.
    for (int i = 1; i <= 3; ++i) {
        const uint64_t page = hot + i * sets;
        demand(*p, page * kLargeBlockSize, 1000 + i * 50);
        EXPECT_TRUE(p->locate(page * kLargeBlockSize).in_nm) << i;
    }
    // The hot page is untouched by the newcomers.
    EXPECT_TRUE(p->locate(hot * kLargeBlockSize).in_nm);
    EXPECT_TRUE(p->verifyIntegrity());
    checkBijective(*p);
    drain();
}

TEST_F(SilcFixture, BypassKeepsResidentBlocksServicedFromNm)
{
    // Section III-E: while bypassing, already-interleaved blocks keep
    // operating from NM; only new swap-ins stop.
    SilcFmParams params = defaultParams();
    params.bypass_window = 8;
    params.bypass_target = 0.4;
    auto p = make(params);
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr hot = page * kLargeBlockSize;
    demand(*p, hot, 0);
    for (int i = 1; i <= 16; ++i)
        demand(*p, hot, i * 10);
    ASSERT_TRUE(p->balancer().bypassing());
    const uint64_t nm_before = p->nmServiced();
    demand(*p, hot, 1000);   // resident: still NM
    EXPECT_EQ(p->nmServiced(), nm_before + 1);
    drain();
}

TEST_F(SilcFixture, LockEvictionUnderFullSetPressure)
{
    // Every way of a set locked, conflicting pages bounced; an aging
    // sweep then unlocks, and the very eviction that was refused must
    // now succeed against the previously-locked way.
    SilcFmParams params = defaultParams();
    params.associativity = 2;
    params.hot_threshold = 4;
    params.aging_interval = 200;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t hot_a = fmPageInSet(*p, 6, 0);
    const uint64_t hot_b = hot_a + sets;
    const uint64_t cold = hot_a + 2 * sets;

    Tick now = 0;
    for (int round = 0; round < 6; ++round) {
        for (uint32_t s = 0; s < 4; ++s) {
            demand(*p, hot_a * kLargeBlockSize + s * kSubblockSize,
                   now += 10);
            demand(*p, hot_b * kLargeBlockSize + s * kSubblockSize,
                   now += 10);
        }
    }
    ASSERT_GE(p->locks(), 2u);
    ASSERT_EQ(p->metadata().victimWay(6), -1);   // set is sealed

    // Bounced: no way available, serviced from FM, no state movement.
    const uint64_t restores = p->restores();
    demand(*p, cold * kLargeBlockSize, now += 10);
    EXPECT_GE(p->allWaysLockedEvents(), 1u);
    EXPECT_EQ(p->restores(), restores);
    EXPECT_FALSE(p->locate(cold * kLargeBlockSize).in_nm);

    // Unrelated traffic crosses aging sweeps until the locks decay.
    const uint64_t other = fmPageInSet(*p, 40, 0);
    for (int i = 0; i < 900 && p->unlocks() < 2; ++i)
        demand(*p, other * kLargeBlockSize, now += 10);
    ASSERT_GE(p->unlocks(), 2u);

    // Now the eviction goes through: cold takes a way, displacing one
    // of the formerly-locked interleaves back home.
    demand(*p, cold * kLargeBlockSize, now += 10);
    EXPECT_TRUE(p->locate(cold * kLargeBlockSize).in_nm);
    EXPECT_GT(p->restores(), restores);
    EXPECT_TRUE(p->verifyIntegrity());
    checkBijective(*p);
    drain(now);
}

TEST_F(SilcFixture, PartiallyPresentBlockRestoresEverySubblockHome)
{
    // Evicting an interleaved block that is only partially swapped in:
    // exactly the resident subblocks travel, and afterwards every
    // subblock of both the old owner and the displaced natives is
    // findable at its proper home.
    SilcFmParams params = defaultParams();
    params.associativity = 1;
    params.enable_locking = false;
    params.enable_history_fetch = false;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t page_a = fmPageInSet(*p, 21, 0);
    const uint64_t page_b = page_a + sets;

    const uint32_t present[] = {0, 2, 5};
    Tick now = 0;
    for (uint32_t s : present)
        demand(*p, page_a * kLargeBlockSize + s * kSubblockSize,
               now += 10);
    const int way = p->metadata().findWay(21, page_a);
    ASSERT_GE(way, 0);
    const uint64_t frame = p->metadata().frameOf(21, way);
    ASSERT_EQ(p->metadata().meta(frame).bv.count(), 3u);

    // Conflict evicts the partially-present block.
    demand(*p, page_b * kLargeBlockSize + 7 * kSubblockSize, now += 10);
    EXPECT_EQ(p->restores(), 1u);

    // page_a is wholly back home in FM...
    for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
        EXPECT_FALSE(
            p->locate(page_a * kLargeBlockSize + s * kSubblockSize)
                .in_nm)
            << "subblock " << s;
    }
    // ...the frame's natives are all back except the one position
    // page_b now occupies...
    for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
        const Addr native = frame * kLargeBlockSize +
            s * kSubblockSize;
        EXPECT_EQ(p->locate(native).in_nm, s != 7) << "subblock " << s;
    }
    // ...and page_b holds exactly its demanded position.
    EXPECT_TRUE(
        p->locate(page_b * kLargeBlockSize + 7 * kSubblockSize).in_nm);
    EXPECT_EQ(p->metadata().meta(frame).bv.count(), 1u);
    checkBijective(*p);
    drain(now);
}

TEST_F(SilcFixture, PredictorMispredictsJustRemappedSubblock)
{
    // The access that swaps a subblock into NM trains the predictor
    // with "this block lives in FM"; the very next access to the block
    // is serviced from NM, so that prediction must score as a location
    // miss (the predictor is timing-only and never affects placement).
    auto p = make(defaultParams());
    const uint64_t page = fmPageInSet(*p, 0);
    const Addr a = page * kLargeBlockSize;

    demand(*p, a, 0, 0x890);   // swap-in; trains in_fm = true
    ASSERT_TRUE(p->locate(a).in_nm);
    const uint64_t predictions = p->predictor().predictions();
    const uint64_t loc_hits = p->predictor().locationHits();

    demand(*p, a, 100, 0x890); // serviced from NM against an FM guess
    EXPECT_EQ(p->predictor().predictions(), predictions + 1);
    EXPECT_EQ(p->predictor().locationHits(), loc_hits);

    // The mapping itself was never disturbed by the mispredict.
    EXPECT_TRUE(p->locate(a).in_nm);
    EXPECT_EQ(p->nmServiced(), 1u);

    // Once retrained, the same block predicts NM correctly.
    demand(*p, a, 200, 0x890);
    EXPECT_EQ(p->predictor().locationHits(), loc_hits + 1);
    drain();
}

TEST_F(SilcFixture, RestoreFreesWayForReuse)
{
    SilcFmParams params = defaultParams();
    params.associativity = 1;
    params.enable_locking = false;
    auto p = make(params);
    const uint64_t sets = p->metadata().numSets();
    const uint64_t a = fmPageInSet(*p, 11, 0);
    const uint64_t b = a + sets;
    demand(*p, a * kLargeBlockSize, 0);
    demand(*p, b * kLargeBlockSize, 100);   // evicts a
    demand(*p, a * kLargeBlockSize, 200);   // evicts b again
    EXPECT_EQ(p->restores(), 2u);
    EXPECT_TRUE(p->locate(a * kLargeBlockSize).in_nm);
    EXPECT_FALSE(p->locate(b * kLargeBlockSize).in_nm);
    checkBijective(*p);
    drain();
}
