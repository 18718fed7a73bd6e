/**
 * @file
 * Unit and property tests for the baseline flat-memory policies:
 * static placement (rand, and fmonly without NM), CAMEO(+P), PoM, HMA
 * and the cache-like rivals (dramcache, memcache).  The central
 * property is that locate() stays a bijection over the flat space no
 * matter what sequence of accesses and migrations has happened.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "dram/dram_system.hh"
#include "policy/cameo.hh"
#include "policy/hma.hh"
#include "policy/memcache.hh"
#include "policy/pom.hh"
#include "policy/registry.hh"
#include "policy/static_random.hh"

using namespace silc;
using namespace silc::policy;

namespace {

/** A tiny NM/FM pair shared by the tests (1 MiB NM, 4 MiB FM). */
class PolicyFixture : public ::testing::Test
{
  protected:
    PolicyFixture()
    {
        dram::DramTimingParams nm_p = dram::hbm2Params();
        dram::DramTimingParams fm_p = dram::ddr3Params();
        nm_ = std::make_unique<dram::DramSystem>(nm_p, 1_MiB, events_);
        fm_ = std::make_unique<dram::DramSystem>(fm_p, 4_MiB, events_);
        env_.nm = nm_.get();
        env_.fm = fm_.get();
        env_.events = &events_;
    }

    /** Step DRAM until everything queued has drained. */
    void
    drain(Tick start = 0, Tick budget = 4'000'000)
    {
        for (Tick t = start; t < start + budget; ++t) {
            nm_->tick(t);
            fm_->tick(t);
            events_.runDue(t);
            if (nm_->idle() && fm_->idle() && events_.empty())
                return;
        }
        FAIL() << "DRAM did not drain";
    }

    /**
     * The bijection property: every 64B block in the flat space maps to
     * a distinct (device, address) and round-trips within capacity.
     */
    void
    checkBijective(const FlatMemoryPolicy &policy)
    {
        std::set<std::pair<bool, Addr>> seen;
        for (Addr a = 0; a < policy.flatSpaceBytes(); a += kSubblockSize) {
            const Location loc = policy.locate(a);
            if (loc.in_nm)
                ASSERT_LT(loc.device_addr, nm_->capacity());
            else
                ASSERT_LT(loc.device_addr, fm_->capacity());
            ASSERT_TRUE(
                seen.insert({loc.in_nm, loc.device_addr}).second)
                << "two blocks share a location (flat addr " << a << ")";
        }
        // Complete coverage: as many distinct locations as blocks.
        EXPECT_EQ(seen.size(), policy.flatSpaceBytes() / kSubblockSize);
    }

    /** The fixture's env without its NM device: static placement
     *  built on it is the no-NM baseline. */
    PolicyEnv
    fmOnlyEnv() const
    {
        PolicyEnv env = env_;
        env.nm = nullptr;
        return env;
    }

    EventQueue events_;
    std::unique_ptr<dram::DramSystem> nm_;
    std::unique_ptr<dram::DramSystem> fm_;
    PolicyEnv env_;
};

/** Issue one demand access and return the completion tick. */
Tick
demand(FlatMemoryPolicy &policy, Addr a, Tick now, CoreId core = 0,
       Addr pc = 0x400)
{
    // The completion callback outlives this frame (it fires from the
    // DRAM event path during drain()), so the landing slot must be
    // owned by the callback, not a captured stack local.
    auto done = std::make_shared<Tick>(kTickNever);
    policy.demandAccess(a, false, core, pc,
                        [done](Tick t) { *done = t; }, now);
    return *done;
}

/** The dramcache row's parameters: all of NM a direct-mapped cache. */
MemCacheParams
dramCacheParams()
{
    return SchemeConfig{}.dramcache;
}

} // namespace

// ---- FmOnly -----------------------------------------------------------------

TEST_F(PolicyFixture, FmOnlySpansOnlyFm)
{
    StaticRandomPolicy p(fmOnlyEnv());
    EXPECT_EQ(p.flatSpaceBytes(), fm_->capacity());
    const Location loc = p.locate(4096);
    EXPECT_FALSE(loc.in_nm);
    EXPECT_EQ(loc.device_addr, 4096u);
}

TEST_F(PolicyFixture, FmOnlyCountsAllAsFm)
{
    StaticRandomPolicy p(fmOnlyEnv());
    demand(p, 0, 0);
    demand(p, 64, 0);
    drain();
    EXPECT_EQ(p.nmServiced(), 0u);
    EXPECT_EQ(p.fmServiced(), 2u);
    EXPECT_DOUBLE_EQ(p.accessRate(), 0.0);
}

// ---- StaticRandom -------------------------------------------------------------

TEST_F(PolicyFixture, RandomIsIdentityLayout)
{
    StaticRandomPolicy p(env_);
    EXPECT_EQ(p.flatSpaceBytes(), 5_MiB);
    EXPECT_TRUE(p.locate(0).in_nm);
    EXPECT_FALSE(p.locate(1_MiB).in_nm);
    EXPECT_EQ(p.locate(1_MiB + 64).device_addr, 64u);
    checkBijective(p);
}

TEST_F(PolicyFixture, RandomAccessRateTracksAddressSplit)
{
    StaticRandomPolicy p(env_);
    demand(p, 0, 0);              // NM
    demand(p, 2_MiB, 0);          // FM
    demand(p, 3_MiB, 0);          // FM
    drain();
    EXPECT_EQ(p.nmServiced(), 1u);
    EXPECT_EQ(p.fmServiced(), 2u);
    EXPECT_NEAR(p.accessRate(), 1.0 / 3.0, 1e-12);
}

TEST_F(PolicyFixture, RandomNeverMigrates)
{
    StaticRandomPolicy p(env_);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i)
        demand(p, rng.below(p.flatSpaceBytes() / 64) * 64, i);
    EXPECT_EQ(p.migrationOps(), 0u);
    checkBijective(p);
}

// ---- CAMEO -------------------------------------------------------------------

TEST_F(PolicyFixture, CameoFirstFmAccessSwapsIntoNm)
{
    CameoPolicy p(env_, CameoParams{});
    const Addr fm_block = 2_MiB;   // member != 0 of its group
    EXPECT_FALSE(p.locate(fm_block).in_nm);
    demand(p, fm_block, 0);
    EXPECT_TRUE(p.locate(fm_block).in_nm);
    EXPECT_EQ(p.swaps(), 1u);
    checkBijective(p);
    drain();
}

TEST_F(PolicyFixture, CameoEvictsNmOccupantToVacatedSlot)
{
    CameoPolicy p(env_, CameoParams{});
    const Addr a = 1_MiB;          // member 1 of group 0
    const Addr b = 2_MiB;          // member 2 of group 0
    demand(p, a, 0);               // a -> NM slot, native -> a's slot
    const Location native_loc = p.locate(0);
    EXPECT_FALSE(native_loc.in_nm);
    EXPECT_EQ(native_loc.device_addr, 0u);   // FM device addr of a's home
    demand(p, b, 100);             // b -> NM, a -> b's home
    EXPECT_TRUE(p.locate(b).in_nm);
    EXPECT_FALSE(p.locate(a).in_nm);
    checkBijective(p);
    drain();
}

TEST_F(PolicyFixture, CameoNmHitDoesNotSwap)
{
    CameoPolicy p(env_, CameoParams{});
    demand(p, 0, 0);   // NM-native
    EXPECT_EQ(p.swaps(), 0u);
    EXPECT_EQ(p.nmServiced(), 1u);
    drain();
}

TEST_F(PolicyFixture, CameoPrefetchPullsNextLines)
{
    CameoParams params;
    params.prefetch_degree = 3;
    CameoPolicy p(env_, params);
    const Addr fm_block = 2_MiB;
    demand(p, fm_block, 0);
    // The demand line plus the next three now live in NM.
    for (uint32_t i = 0; i <= 3; ++i)
        EXPECT_TRUE(p.locate(fm_block + i * kSubblockSize).in_nm);
    EXPECT_EQ(p.prefetches(), 3u);
    checkBijective(p);
    drain();
}

TEST_F(PolicyFixture, CameoPlainDoesNotPrefetch)
{
    CameoPolicy p(env_, CameoParams{});
    demand(p, 2_MiB, 0);
    EXPECT_EQ(p.prefetches(), 0u);
    EXPECT_FALSE(p.locate(2_MiB + kSubblockSize).in_nm);
    drain();
}

TEST_F(PolicyFixture, CameoLlpTrainsTowardsCorrect)
{
    CameoPolicy p(env_, CameoParams{});
    // Repeated accesses to the same (now NM-resident) block: the LLP
    // should converge to predicting NM for it.
    demand(p, 2_MiB, 0);
    for (int i = 1; i <= 10; ++i)
        demand(p, 2_MiB, i * 1000);
    drain();
    EXPECT_GT(p.llpLookups(), 0u);
    EXPECT_GT(p.llpCorrect(), p.llpLookups() / 2);
}

TEST_F(PolicyFixture, CameoRandomStormStaysBijective)
{
    CameoPolicy p(env_, CameoParams{});
    Rng rng(42);
    for (int i = 0; i < 5000; ++i)
        demand(p, rng.below(p.flatSpaceBytes() / 64) * 64, i);
    checkBijective(p);
    drain();
}

// ---- PoM ---------------------------------------------------------------------

namespace {

PomParams
eagerPom()
{
    PomParams params;
    params.migration_threshold = 2;
    return params;
}

} // namespace

TEST_F(PolicyFixture, PomMigratesAfterThreshold)
{
    PomPolicy p(env_, eagerPom());
    const Addr fm_page_addr = 2_MiB;
    EXPECT_FALSE(p.locate(fm_page_addr).in_nm);
    demand(p, fm_page_addr, 0);
    EXPECT_FALSE(p.locate(fm_page_addr).in_nm);   // below threshold
    demand(p, fm_page_addr, 100);
    EXPECT_TRUE(p.locate(fm_page_addr).in_nm);    // migrated
    EXPECT_EQ(p.migrations(), 1u);
    checkBijective(p);
    drain();
}

TEST_F(PolicyFixture, PomMigrationMovesWholePage)
{
    PomPolicy p(env_, eagerPom());
    const Addr fm_page_addr = 2_MiB;
    demand(p, fm_page_addr, 0);
    demand(p, fm_page_addr, 100);
    // Every subblock of the 2KB page is now NM-resident.
    for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
        EXPECT_TRUE(
            p.locate(fm_page_addr + s * kSubblockSize).in_nm);
    }
    // 2KB each way = at least 64 subblock moves.
    EXPECT_GE(p.migrationOps(), 2 * kSubblocksPerBlock);
    drain();
}

TEST_F(PolicyFixture, PomDisplacedNativeFoundAtResidentsHome)
{
    PomPolicy p(env_, eagerPom());
    const Addr fm_page_addr = 2_MiB;   // group 0, member 2
    demand(p, fm_page_addr, 0);
    demand(p, fm_page_addr, 100);
    const Location native = p.locate(0);
    EXPECT_FALSE(native.in_nm);
    // Native page 0 now lives at member 2's FM home, which is device
    // address (2MiB - 1MiB NM) = 1MiB.
    EXPECT_EQ(native.device_addr, 1_MiB);
    checkBijective(p);
    drain();
}

TEST_F(PolicyFixture, PomSecondMigrationRestoresFirst)
{
    PomPolicy p(env_, eagerPom());
    const Addr first = 2_MiB;    // member 2 of group 0
    const Addr second = 3_MiB;   // member 3 of group 0
    demand(p, first, 0);
    demand(p, first, 1);
    ASSERT_TRUE(p.locate(first).in_nm);
    demand(p, second, 2);
    demand(p, second, 3);
    EXPECT_TRUE(p.locate(second).in_nm);
    EXPECT_FALSE(p.locate(first).in_nm);
    // First page restored to its own home.
    EXPECT_EQ(p.locate(first).device_addr, 1_MiB);
    EXPECT_EQ(p.restores(), 1u);
    checkBijective(p);
    drain();
}

TEST_F(PolicyFixture, PomRandomStormStaysBijective)
{
    PomPolicy p(env_, eagerPom());
    Rng rng(7);
    for (int i = 0; i < 4000; ++i)
        demand(p, rng.below(p.flatSpaceBytes() / 64) * 64, i);
    checkBijective(p);
    drain(0, 40'000'000);
}

// ---- HMA ---------------------------------------------------------------------

namespace {

HmaParams
fastHma()
{
    HmaParams params;
    params.epoch_ticks = 10'000;
    params.hot_threshold = 4;
    params.os_base_overhead = 100;
    params.os_per_page_overhead = 10;
    return params;
}

} // namespace

TEST_F(PolicyFixture, HmaMigratesHotFmPageAtEpoch)
{
    HmaPolicy p(env_, fastHma());
    const Addr hot = 2_MiB + 4 * kLargeBlockSize;
    for (int i = 0; i < 10; ++i)
        demand(p, hot, i * 10);
    EXPECT_FALSE(p.locate(hot).in_nm);   // mid-epoch: nothing moves
    for (Tick t = 0; t <= 10'000; ++t)
        p.tick(t);
    EXPECT_EQ(p.epochs(), 1u);
    EXPECT_TRUE(p.locate(hot).in_nm);
    EXPECT_GE(p.pagesMigrated(), 1u);
    checkBijective(p);
    drain(20'000);
}

TEST_F(PolicyFixture, HmaColdPagesStayPut)
{
    HmaPolicy p(env_, fastHma());
    const Addr cold = 2_MiB;
    demand(p, cold, 0);   // one access: below threshold
    for (Tick t = 0; t <= 10'000; ++t)
        p.tick(t);
    EXPECT_FALSE(p.locate(cold).in_nm);
    drain(20'000);
}

TEST_F(PolicyFixture, HmaStallsDemandDuringMigrationWindow)
{
    HmaPolicy p(env_, fastHma());
    const Addr hot = 2_MiB;
    for (int i = 0; i < 10; ++i)
        demand(p, hot, i);
    for (Tick t = 0; t <= 10'000; ++t)
        p.tick(t);
    ASSERT_GE(p.pagesMigrated(), 1u);
    // A demand access right after the epoch boundary is delayed past
    // the OS busy window.
    Tick done = kTickNever;
    p.demandAccess(hot, false, 0, 0x400,
                   [&](Tick t) { done = t; }, 10'001);
    for (Tick t = 10'001; t < 10'000'000 && done == kTickNever; ++t) {
        nm_->tick(t);
        fm_->tick(t);
        events_.runDue(t);
    }
    ASSERT_NE(done, kTickNever);
    EXPECT_GT(done, 10'001u + 100u);   // at least the base OS overhead
}

TEST_F(PolicyFixture, HmaEvictsColdestNmPage)
{
    HmaPolicy p(env_, fastHma());
    // Warm an NM-native page a little, make an FM page very hot.
    const Addr lukewarm = 0;
    const Addr hot = 2_MiB;
    for (int i = 0; i < 5; ++i)
        demand(p, lukewarm, i);
    for (int i = 0; i < 50; ++i)
        demand(p, hot, 100 + i);
    for (Tick t = 0; t <= 10'000; ++t)
        p.tick(t);
    EXPECT_TRUE(p.locate(hot).in_nm);
    // The lukewarm page was not the coldest candidate... but wherever
    // pages went, the mapping stays a bijection.
    checkBijective(p);
    drain(20'000, 40'000'000);
}

TEST_F(PolicyFixture, HmaRepeatedEpochsStayBijective)
{
    HmaPolicy p(env_, fastHma());
    Rng rng(3);
    Tick now = 0;
    for (int epoch = 0; epoch < 5; ++epoch) {
        for (int i = 0; i < 500; ++i) {
            demand(p, rng.below(p.flatSpaceBytes() / 64) * 64, now);
            ++now;
        }
        now += 10'000;
        p.tick(now);
        checkBijective(p);
    }
    drain(now + 1, 80'000'000);
}

TEST_F(PolicyFixture, HmaZeroHotThresholdIsFatal)
{
    // The epoch looks for hot pages among the counted ones, so a
    // threshold that makes an uncounted page hot is refused.
    HmaParams params = fastHma();
    params.hot_threshold = 0;
    EXPECT_DEATH(HmaPolicy(env_, params), "hot_threshold");
}

// ---- cross-policy property sweeps ---------------------------------------------

/** Every migrating policy keeps a bijective map under random storms. */
class BijectionSweep
    : public PolicyFixture,
      public ::testing::WithParamInterface<int>
{
};

TEST_P(BijectionSweep, RandomStorm)
{
    const int kind = GetParam();
    std::unique_ptr<FlatMemoryPolicy> p;
    switch (kind) {
      case 0:
        p = std::make_unique<StaticRandomPolicy>(env_);
        break;
      case 1:
        p = std::make_unique<CameoPolicy>(env_, CameoParams{});
        break;
      case 2: {
        CameoParams cp;
        cp.prefetch_degree = 3;
        p = std::make_unique<CameoPolicy>(env_, cp);
        break;
      }
      case 3:
        p = std::make_unique<PomPolicy>(env_, eagerPom());
        break;
      default:
        p = std::make_unique<HmaPolicy>(env_, fastHma());
        break;
    }
    Rng rng(1000 + kind);
    Tick now = 0;
    for (int i = 0; i < 3000; ++i) {
        demand(*p, rng.below(p->flatSpaceBytes() / 64) * 64, now);
        p->tick(now);
        now += 7;
    }
    checkBijective(*p);
    drain(now, 120'000'000);
}

namespace {

std::string
sweepName(const ::testing::TestParamInfo<int> &info)
{
    static const char *const names[] = {"rand", "cam", "camp", "pom",
                                        "hma"};
    return names[info.param];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Policies, BijectionSweep,
                         ::testing::Values(0, 1, 2, 3, 4), sweepName);

// ---- writeback routing ----------------------------------------------------------

TEST_F(PolicyFixture, WritebackGoesToCurrentLocation)
{
    CameoPolicy p(env_, CameoParams{});
    const Addr fm_block = 2_MiB;
    demand(p, fm_block, 0);   // swapped into NM
    drain();
    const uint64_t nm_wb_before = nm_->traffic().write[static_cast<size_t>(
        dram::TrafficClass::Writeback)];
    p.writeback(fm_block, 0, 1'000'000);
    drain(1'000'000);
    const uint64_t nm_wb_after = nm_->traffic().write[static_cast<size_t>(
        dram::TrafficClass::Writeback)];
    EXPECT_EQ(nm_wb_after - nm_wb_before, kSubblockSize);
}

// ---- traffic-class accounting across schemes -------------------------------------

TEST_F(PolicyFixture, CameoSwapTrafficIsMigrationClass)
{
    CameoPolicy p(env_, CameoParams{});
    demand(p, 2_MiB, 0);
    drain();
    const auto mig = static_cast<size_t>(dram::TrafficClass::Migration);
    // Swap writes: 64B+LLT into NM and 64B back to FM.
    EXPECT_GE(nm_->traffic().write[mig], kSubblockSize);
    EXPECT_GE(fm_->traffic().write[mig], kSubblockSize);
}

TEST_F(PolicyFixture, PomMigrationTrafficAccounted)
{
    PomPolicy p(env_, eagerPom());
    demand(p, 2_MiB, 0);
    demand(p, 2_MiB, 100);
    drain();
    const auto mig = static_cast<size_t>(dram::TrafficClass::Migration);
    // A full 2KB swap: >= 2KB read from and written to each device.
    EXPECT_GE(nm_->traffic().read[mig], kLargeBlockSize);
    EXPECT_GE(nm_->traffic().write[mig], kLargeBlockSize);
    EXPECT_GE(fm_->traffic().read[mig], kLargeBlockSize);
    EXPECT_GE(fm_->traffic().write[mig], kLargeBlockSize);
}

TEST_F(PolicyFixture, DemandBytesSeparateFromMigration)
{
    CameoPolicy p(env_, CameoParams{});
    demand(p, 2_MiB, 0);
    drain();
    // Exactly one 64B demand read reached FM; swap traffic must not
    // pollute the demand class (Figure 8 depends on this separation).
    const auto d = static_cast<size_t>(dram::TrafficClass::Demand);
    EXPECT_EQ(fm_->traffic().read[d], kSubblockSize);
    EXPECT_EQ(fm_->traffic().write[d], 0u);
}

TEST_F(PolicyFixture, HmaMigrationIsBackgroundTraffic)
{
    HmaPolicy p(env_, fastHma());
    const Addr hot = 2_MiB;
    for (int i = 0; i < 10; ++i)
        demand(p, hot, i);
    for (Tick t = 0; t <= 10'000; ++t)
        p.tick(t);
    drain(10'001, 40'000'000);
    const auto mig = static_cast<size_t>(dram::TrafficClass::Migration);
    const uint64_t total_mig = nm_->traffic().read[mig] +
        nm_->traffic().write[mig] + fm_->traffic().read[mig] +
        fm_->traffic().write[mig];
    // One page swap = 2KB in each direction on each device.
    EXPECT_GE(total_mig, 4 * kLargeBlockSize);
}

// ---- DramCache (pure die-stacked cache) -------------------------------------

TEST_F(PolicyFixture, DramCacheFlatSpaceIsFmAlone)
{
    // NM is a cache, not memory: the OS-visible space gains nothing.
    MemCachePolicy p(env_, dramCacheParams());
    EXPECT_EQ(p.flatSpaceBytes(), fm_->capacity());
    const Location loc = p.locate(3_MiB);
    EXPECT_FALSE(loc.in_nm);
    EXPECT_EQ(loc.device_addr, 3_MiB);
}

TEST_F(PolicyFixture, DramCacheMissFillsThenHits)
{
    MemCachePolicy p(env_, dramCacheParams());
    demand(p, 2_MiB, 0);
    drain();
    EXPECT_EQ(p.fmServiced(), 1u);
    EXPECT_EQ(p.fills(), 1u);
    const Location loc = p.locate(2_MiB);
    EXPECT_TRUE(loc.in_nm);

    demand(p, 2_MiB, 1'000'000);
    drain(1'000'000);
    EXPECT_EQ(p.nmServiced(), 1u);
    EXPECT_EQ(p.fills(), 1u); // a hit does not re-fill
}

TEST_F(PolicyFixture, DramCacheDirtyVictimWritesBackToFmHome)
{
    // Direct-mapped: block B and block B + slots collide in set B.
    MemCachePolicy p(env_, dramCacheParams());
    ASSERT_EQ(p.directory().ways(), 1u);
    const uint64_t slots = p.directory().slots();
    const Addr a = 64 * kSubblockSize;
    const Addr conflict = a + slots * kSubblockSize;
    ASSERT_LT(conflict, p.flatSpaceBytes());

    auto write = [&](Addr addr, Tick now) {
        p.demandAccess(addr, true, 0, 0x400, nullptr, now);
        drain(now);
    };
    write(a, 0);            // dirty fill of the shared slot
    write(conflict, 1'000'000); // evicts a's line, which is dirty
    EXPECT_EQ(p.dirtyEvictions(), 1u);
    EXPECT_EQ(p.fills(), 2u);
    // The evicted block is findable at its FM home again.
    const Location loc = p.locate(a);
    EXPECT_FALSE(loc.in_nm);
    EXPECT_EQ(loc.device_addr, a);
}

TEST_F(PolicyFixture, DramCacheWriteAroundSkipsFill)
{
    MemCacheParams params = dramCacheParams();
    params.fill_on_write = false;
    MemCachePolicy p(env_, params);
    p.demandAccess(2_MiB, true, 0, 0x400, nullptr, 0);
    drain();
    // Write miss goes around the cache: no fill, line stays in FM.
    EXPECT_EQ(p.fills(), 0u);
    EXPECT_FALSE(p.locate(2_MiB).in_nm);
    // A read miss still allocates.
    demand(p, 2_MiB, 1'000'000);
    drain(1'000'000);
    EXPECT_EQ(p.fills(), 1u);
    EXPECT_TRUE(p.locate(2_MiB).in_nm);
}

TEST_F(PolicyFixture, DramCacheSnapshotRestoreRoundTrips)
{
    MemCachePolicy p(env_, dramCacheParams());
    Tick now = 0;
    for (int i = 0; i < 32; ++i) {
        p.demandAccess((i * 977) % (4_MiB / kSubblockSize) * kSubblockSize,
                       i % 3 == 0, 0, 0x400, nullptr, now);
        drain(now);
        now += 1'000'000;
    }
    Blob w;
    p.checkpoint(w);

    MemCachePolicy q(env_, dramCacheParams());
    Blob r(w.bytes());
    q.checkpoint(r);
    r.done();
    EXPECT_EQ(q.fills(), p.fills());
    EXPECT_EQ(q.dirtyEvictions(), p.dirtyEvictions());
    for (Addr a = 0; a < p.flatSpaceBytes(); a += kSubblockSize) {
        const Location lp = p.locate(a);
        const Location lq = q.locate(a);
        ASSERT_EQ(lq.in_nm, lp.in_nm) << "flat addr " << a;
        ASSERT_EQ(lq.device_addr, lp.device_addr) << "flat addr " << a;
    }
}

// ---- MemCache (hybrid static flat + cache) ----------------------------------

TEST_F(PolicyFixture, MemCacheStaticSplitIsPageAligned)
{
    MemCacheParams params;
    params.mem_percent = 50;
    MemCachePolicy p(env_, params);
    // The split is the percentage share rounded DOWN to a whole 2KB
    // page; within a page of the exact share, never above it.
    EXPECT_EQ(p.staticBytes() % kLargeBlockSize, 0u);
    EXPECT_LE(p.staticBytes(), nm_->capacity() / 2);
    EXPECT_GT(p.staticBytes() + kLargeBlockSize, nm_->capacity() / 100 * 50);
    EXPECT_EQ(p.flatSpaceBytes(), p.staticBytes() + fm_->capacity());

    MemCacheParams odd;
    odd.mem_percent = 33;
    MemCachePolicy q(env_, odd);
    EXPECT_EQ(q.staticBytes() % kLargeBlockSize, 0u);
    EXPECT_LE(q.staticBytes(), nm_->capacity() / 100 * 33);
}

TEST_F(PolicyFixture, MemCacheStaticRegionIdentityMapsToNm)
{
    MemCacheParams params;
    params.mem_percent = 50;
    MemCachePolicy p(env_, params);
    const Addr addr = p.staticBytes() - kSubblockSize;
    const Location loc = p.locate(addr);
    EXPECT_TRUE(loc.in_nm);
    EXPECT_EQ(loc.device_addr, addr);
    // Static accesses are plain NM memory: serviced by NM, no fill.
    demand(p, addr, 0);
    drain();
    EXPECT_EQ(p.nmServiced(), 1u);
    EXPECT_EQ(p.fills(), 0u);
}

TEST_F(PolicyFixture, MemCacheDynamicRegionCachesAboveStatic)
{
    MemCacheParams params;
    params.mem_percent = 50;
    MemCachePolicy p(env_, params);
    const Addr addr = p.staticBytes() + 2_MiB;
    // Miss: the line lives at its FM home (flat minus static region).
    Location loc = p.locate(addr);
    EXPECT_FALSE(loc.in_nm);
    EXPECT_EQ(loc.device_addr, addr - p.staticBytes());

    demand(p, addr, 0);
    drain();
    EXPECT_EQ(p.fmServiced(), 1u);
    EXPECT_EQ(p.fills(), 1u);
    // Hit: now cached in the NM slot region above the static split.
    loc = p.locate(addr);
    EXPECT_TRUE(loc.in_nm);
    EXPECT_GE(loc.device_addr, p.staticBytes());
    demand(p, addr, 1'000'000);
    drain(1'000'000);
    EXPECT_EQ(p.nmServiced(), 1u);
}

TEST_F(PolicyFixture, MemCacheCacheCoversExactlyNonStaticNm)
{
    MemCacheParams params;
    params.mem_percent = 50;
    MemCachePolicy p(env_, params);
    EXPECT_EQ(p.staticBytes() +
                  p.directory().slots() * kSubblockSize,
              nm_->capacity());
}

TEST_F(PolicyFixture, MemCacheAllMemoryPercentIsFatal)
{
    MemCacheParams params;
    params.mem_percent = 100;
    EXPECT_DEATH(MemCachePolicy(env_, params), "mem_percent");
}
