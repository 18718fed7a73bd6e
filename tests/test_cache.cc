/**
 * @file
 * Unit tests for the cache model (geometry, LRU, write-back/allocate,
 * victims) and the MSHR file (coalescing, per-core throttling).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"

using namespace silc;
using namespace silc::cache;

namespace {

CacheParams
smallCache(uint32_t assoc = 2)
{
    CacheParams p;
    p.name = "test";
    p.size_bytes = 1024;   // 16 lines
    p.associativity = assoc;
    p.line_bytes = 64;
    return p;
}

} // namespace

// ---- geometry ---------------------------------------------------------------

TEST(CacheGeometry, SetCount)
{
    CacheParams p = smallCache(2);
    EXPECT_EQ(p.numSets(), 8u);
    Cache c(p);
    EXPECT_EQ(c.params().numSets(), 8u);
}

TEST(CacheGeometry, Table2Shapes)
{
    CacheParams l1d;
    l1d.size_bytes = 16 * 1024;
    l1d.associativity = 4;
    EXPECT_EQ(l1d.numSets(), 64u);
    CacheParams l1i;
    l1i.size_bytes = 64 * 1024;
    l1i.associativity = 2;
    EXPECT_EQ(l1i.numSets(), 512u);
}

// ---- hit/miss behaviour -------------------------------------------------------

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1030, false).hit);   // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, ProbeDoesNotDisturb)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x1000, false);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_EQ(c.hits(), 0u);   // probe is stat-free
}

TEST(Cache, LruEvictsLeastRecent)
{
    Cache c(smallCache(2));   // 8 sets, 2 ways
    // Three lines in the same set (stride = sets * line = 512B).
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0000, false);   // refresh line 0
    c.access(0x0400, false);   // evicts 0x0200
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0200));
    EXPECT_TRUE(c.probe(0x0400));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    Cache c(smallCache(1));   // direct-mapped: 16 sets
    c.access(0x0000, true);    // dirty
    AccessOutcome out = c.access(0x0000 + 1024, false);   // same set
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.writeback);
    EXPECT_EQ(out.writeback_addr, 0x0000u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanVictimNoWriteback)
{
    Cache c(smallCache(1));
    c.access(0x0000, false);
    AccessOutcome out = c.access(0x0000 + 1024, false);
    EXPECT_FALSE(out.writeback);
}

TEST(Cache, WriteMarksDirtyOnHitToo)
{
    Cache c(smallCache(1));
    c.access(0x0000, false);   // clean fill
    c.access(0x0000, true);    // dirty it
    AccessOutcome out = c.access(0x0000 + 1024, false);
    EXPECT_TRUE(out.writeback);
}

TEST(Cache, FillInstallsWithoutHitStats)
{
    Cache c(smallCache());
    c.fill(0x2000, false);
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.probe(0x2000));
}

TEST(Cache, FillDirtyCascades)
{
    Cache c(smallCache(1));
    c.fill(0x0000, true);
    AccessOutcome out = c.fill(0x0000 + 1024, false);
    EXPECT_TRUE(out.writeback);
    EXPECT_EQ(out.writeback_addr, 0x0000u);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(smallCache());
    c.access(0x3000, true);
    EXPECT_TRUE(c.invalidate(0x3000));
    EXPECT_FALSE(c.probe(0x3000));
    EXPECT_FALSE(c.invalidate(0x3000));   // already gone
}

TEST(Cache, NoteMissOnlyTouchesStats)
{
    Cache c(smallCache());
    c.noteMiss();
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, MissRate)
{
    Cache c(smallCache());
    c.access(0x0000, false);
    c.access(0x0000, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, RandomReplacementStillCorrect)
{
    CacheParams p = smallCache(2);
    p.replacement = Replacement::Random;
    Cache c(p);
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0400, false);   // evicts one of the two
    int present = (c.probe(0x0000) ? 1 : 0) + (c.probe(0x0200) ? 1 : 0);
    EXPECT_EQ(present, 1);
    EXPECT_TRUE(c.probe(0x0400));
}

/** Capacity property: a working set equal to the cache size fits. */
class CacheCapacity : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CacheCapacity, WorkingSetEqualToCapacityFits)
{
    CacheParams p = smallCache(GetParam());
    Cache c(p);
    const uint64_t lines = p.size_bytes / p.line_bytes;
    for (uint64_t i = 0; i < lines; ++i)
        c.access(i * p.line_bytes, false);
    // Second pass: all hits.
    for (uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * p.line_bytes, false).hit);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST_P(CacheCapacity, OversizedWorkingSetThrashes)
{
    CacheParams p = smallCache(GetParam());
    Cache c(p);
    const uint64_t lines = 2 * p.size_bytes / p.line_bytes;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t i = 0; i < lines; ++i)
            c.access(i * p.line_bytes, false);
    }
    EXPECT_GT(c.evictions(), 0u);
    EXPECT_GT(c.missRate(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheCapacity,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// ---- MSHRs ----------------------------------------------------------------

TEST(Mshr, PrimaryThenCoalesced)
{
    MshrFile mshr(4, 2);
    int fired = 0;
    auto cb = [&](Tick) { ++fired; };
    EXPECT_EQ(mshr.allocate(0x1000, 0, cb), MshrAllocation::Primary);
    EXPECT_EQ(mshr.allocate(0x1000, 1, cb), MshrAllocation::Coalesced);
    EXPECT_TRUE(mshr.outstanding(0x1000));
    EXPECT_EQ(mshr.complete(0x1000, 55), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(mshr.outstanding(0x1000));
}

TEST(Mshr, CapacityRejects)
{
    MshrFile mshr(2, 2);
    auto cb = [](Tick) {};
    EXPECT_EQ(mshr.allocate(0x0000, 0, cb), MshrAllocation::Primary);
    EXPECT_EQ(mshr.allocate(0x0040, 1, cb), MshrAllocation::Primary);
    EXPECT_EQ(mshr.allocate(0x0080, 2, cb), MshrAllocation::NoCapacity);
    EXPECT_EQ(mshr.rejections(), 1u);
}

TEST(Mshr, PerCoreThrottle)
{
    MshrFile mshr(8, 2);
    auto cb = [](Tick) {};
    EXPECT_EQ(mshr.allocate(0x0000, 0, cb), MshrAllocation::Primary);
    EXPECT_EQ(mshr.allocate(0x0040, 0, cb), MshrAllocation::Primary);
    // Core 0 is at its limit; core 1 is not.
    EXPECT_EQ(mshr.allocate(0x0080, 0, cb), MshrAllocation::NoCapacity);
    EXPECT_EQ(mshr.allocate(0x0080, 1, cb), MshrAllocation::Primary);
    // Coalescing is always allowed.
    EXPECT_EQ(mshr.allocate(0x0040, 0, cb), MshrAllocation::Coalesced);
}

TEST(Mshr, CompleteFreesPerCoreSlot)
{
    MshrFile mshr(8, 1);
    auto cb = [](Tick) {};
    EXPECT_EQ(mshr.allocate(0x0000, 0, cb), MshrAllocation::Primary);
    EXPECT_EQ(mshr.allocate(0x0040, 0, cb), MshrAllocation::NoCapacity);
    mshr.complete(0x0000, 1);
    EXPECT_EQ(mshr.allocate(0x0040, 0, cb), MshrAllocation::Primary);
}

TEST(Mshr, WaitersFireInOrder)
{
    MshrFile mshr(4, 4);
    std::vector<int> order;
    mshr.allocate(0x1000, 0, [&](Tick) { order.push_back(0); });
    mshr.addWaiter(0x1000, [&](Tick) { order.push_back(1); });
    mshr.addWaiter(0x1000, [&](Tick) { order.push_back(2); });
    mshr.complete(0x1000, 9);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Mshr, TableSurvivesCollisionChurn)
{
    // The MSHR file is an open-addressed table with backward-shift
    // deletion; interleave allocates and completes over many block
    // addresses (far more than the capacity, in clustered strides that
    // force probe-chain collisions) and verify lookups never lose or
    // duplicate an entry.
    MshrFile mshr(16, 16);
    std::vector<Addr> live;
    uint64_t completed = 0;
    uint64_t next_block = 0;
    // Deterministic LCG so the churn pattern is reproducible.
    uint64_t state = 12345;
    auto rnd = [&state](uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    for (int step = 0; step < 2000; ++step) {
        if (live.size() < 16 && rnd(2) == 0) {
            // Clustered addresses: consecutive block numbers hash near
            // each other often enough to exercise chain shifts.
            const Addr addr = (next_block++ % 64) * kSubblockSize;
            if (std::find(live.begin(), live.end(), addr) != live.end())
                continue;
            ASSERT_EQ(mshr.allocate(addr, 0, [&](Tick) { ++completed; }),
                      MshrAllocation::Primary)
                << "step " << step;
            live.push_back(addr);
        } else if (!live.empty()) {
            const size_t pick = rnd(live.size());
            const Addr addr = live[pick];
            ASSERT_TRUE(mshr.outstanding(addr)) << "step " << step;
            ASSERT_EQ(mshr.complete(addr, step), 1u) << "step " << step;
            ASSERT_FALSE(mshr.outstanding(addr)) << "step " << step;
            live.erase(live.begin() + pick);
        }
        ASSERT_EQ(mshr.size(), live.size()) << "step " << step;
        for (const Addr addr : live)
            ASSERT_TRUE(mshr.outstanding(addr)) << "step " << step;
    }
    while (!live.empty()) {
        mshr.complete(live.back(), 0);
        live.pop_back();
    }
    EXPECT_EQ(mshr.size(), 0u);
    EXPECT_GT(completed, 0u);
}

TEST(Mshr, WaiterMayReallocateSameBlock)
{
    MshrFile mshr(4, 4);
    bool refired = false;
    mshr.allocate(0x1000, 0, [&](Tick) {
        // Re-allocate the same block from inside the completion.
        EXPECT_EQ(mshr.allocate(0x1000, 0, [&](Tick) { refired = true; }),
                  MshrAllocation::Primary);
    });
    mshr.complete(0x1000, 1);
    EXPECT_TRUE(mshr.outstanding(0x1000));
    mshr.complete(0x1000, 2);
    EXPECT_TRUE(refired);
}

TEST(Mshr, CoalescedCountStat)
{
    MshrFile mshr(4, 4);
    auto cb = [](Tick) {};
    mshr.allocate(0x1000, 0, cb);
    mshr.allocate(0x1000, 0, cb);
    mshr.allocate(0x1000, 1, cb);
    EXPECT_EQ(mshr.coalesced(), 2u);
}

TEST(MshrDeath, MisalignedBlockAsserts)
{
    MshrFile mshr(4, 4);
    EXPECT_DEATH(mshr.allocate(0x1001, 0, [](Tick) {}), "assertion");
}

TEST(MshrDeath, CompletingUnknownPanics)
{
    MshrFile mshr(4, 4);
    EXPECT_DEATH(mshr.complete(0x1000, 1), "unknown");
}

// ---- hierarchy-shape regression ---------------------------------------------------

TEST(Cache, SharedL2HoldsLessThanSumOfFootprints)
{
    // The scaled L2 (256KB) must be small relative to any workload
    // footprint so that reuse reaches the memory system (DESIGN.md,
    // regime condition 2).  Guard the relationship, not the constant.
    CacheParams l2;
    l2.size_bytes = 256 * 1024;
    l2.associativity = 16;
    l2.validate();
    EXPECT_LT(l2.size_bytes, 1024u * 1024u);
}

TEST(Cache, LruIsPerSet)
{
    Cache c(smallCache(2));   // 8 sets, 2 ways
    // Heavy use of set 0 must not evict lines in set 1.
    c.access(0x0000, false);          // set 0
    c.access(0x0040, false);          // set 1
    for (int i = 0; i < 16; ++i) {
        c.access(0x0000 + 512 * (i % 2), false);   // churn set 0
    }
    EXPECT_TRUE(c.probe(0x0040));
}

TEST(Cache, WritebackAddressReconstruction)
{
    // The victim's full line address must be reconstructable from the
    // stored tag (regression for tag/set arithmetic).
    Cache c(smallCache(1));   // 16 sets
    const Addr victim = 7 * 64 + 3 * 1024;   // set 7, some tag
    c.access(victim, true);
    AccessOutcome out = c.access(victim + 5 * 1024, false);   // same set
    ASSERT_TRUE(out.writeback);
    EXPECT_EQ(out.writeback_addr, victim);
}
