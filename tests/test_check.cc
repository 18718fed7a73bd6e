/**
 * @file
 * Tests for the two-tier correctness harness (src/check/): tier 1, the
 * scheme-agnostic shadow-data invariant checker that shadows EVERY
 * registered scheme; tier 2, the untimed SILC-FM reference model in
 * lockstep with the live policy; plus the deep state sweeps and the
 * fuzz campaign machinery (generation, replay, shrinking, trace
 * persistence).  Since the oracles currently find no divergence in
 * src/, injected-fault self-tests prove each corruption class is
 * actually detected: remap/bitvector/lock/LRU corruption through the
 * differential tier, and lost-write/duplicate-block/capacity-overflow
 * corruption through the shadow tier in both cache-like rivals.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "check/campaign.hh"
#include "check/differential.hh"
#include "check/shadow.hh"
#include "common/rng.hh"
#include "core/silc_fm.hh"
#include "dram/dram_system.hh"
#include "policy/memcache.hh"
#include "policy/registry.hh"
#include "sim/system.hh"
#include "trace/fuzz.hh"

using namespace silc;
using namespace silc::check;
using silc::core::SilcFmParams;
using silc::core::SilcFmPolicy;
using silc::trace::FuzzAccess;
using silc::trace::FuzzGeometry;
using silc::trace::FuzzPattern;

namespace {

class CheckFixture : public ::testing::Test
{
  protected:
    CheckFixture()
    {
        nm_ = std::make_unique<dram::DramSystem>(dram::hbm2Params(),
                                                 1_MiB, events_);
        fm_ = std::make_unique<dram::DramSystem>(dram::ddr3Params(),
                                                 4_MiB, events_);
        env_.nm = nm_.get();
        env_.fm = fm_.get();
        env_.events = &events_;
    }

    SilcFmParams
    stormParams(uint32_t assoc)
    {
        SilcFmParams p;
        p.associativity = assoc;
        p.hot_threshold = 5;
        p.aging_interval = 300;
        p.bypass_window = 128;
        p.bypass_target = 0.5;
        p.history_min_bits = 4;
        return p;
    }

    /**
     * Build a policy+checker pair and drive @p n uniform random
     * accesses through it in lockstep.
     */
    struct Lockstep
    {
        std::unique_ptr<SilcFmPolicy> policy;
        std::unique_ptr<DifferentialChecker> checker;
    };

    Lockstep
    makeLockstep(SilcFmParams params,
                 DifferentialChecker::Options opts = {})
    {
        Lockstep l;
        l.policy = std::make_unique<SilcFmPolicy>(env_, params);
        l.checker =
            std::make_unique<DifferentialChecker>(*l.policy, opts);
        l.policy->addAccessObserver(l.checker.get());
        return l;
    }

    void
    storm(Lockstep &l, uint64_t seed, int n)
    {
        Rng rng(seed);
        Tick now = 0;
        for (int i = 0; i < n; ++i) {
            const Addr a =
                rng.below(l.policy->flatSpaceBytes() / 64) * 64;
            l.policy->demandAccess(a, rng.chance(0.25), 0,
                                   0x400 + rng.below(16) * 4, nullptr,
                                   now);
            now += 7;
        }
    }

    EventQueue events_;
    std::unique_ptr<dram::DramSystem> nm_;
    std::unique_ptr<dram::DramSystem> fm_;
    policy::PolicyEnv env_;
};

} // namespace

// ---- lockstep agreement ---------------------------------------------------

TEST_F(CheckFixture, RandomStormLockstepCleanAcrossAssociativities)
{
    for (uint32_t assoc : {1u, 2u, 4u}) {
        Lockstep l = makeLockstep(stormParams(assoc));
        storm(l, 42 + assoc, 5000);
        EXPECT_FALSE(l.checker->failed())
            << "assoc " << assoc << ": " << l.checker->failure();
        EXPECT_TRUE(l.checker->verifyFullState())
            << "assoc " << assoc << ": " << l.checker->failure();
        EXPECT_EQ(l.checker->accessesChecked(), 5000u);
        EXPECT_GE(l.checker->sweepsRun(), 1u);
    }
}

TEST_F(CheckFixture, FeatureCornersLockstepClean)
{
    // Feature flags off one at a time: the oracle must track the
    // reduced machine, not just the full one.
    for (int corner = 0; corner < 4; ++corner) {
        SilcFmParams p = stormParams(2);
        if (corner == 0) p.enable_locking = false;
        if (corner == 1) p.enable_bypass = false;
        if (corner == 2) p.enable_history_fetch = false;
        if (corner == 3) p.history_entries = 256;   // force collisions
        Lockstep l = makeLockstep(p);
        storm(l, 1000 + corner, 4000);
        EXPECT_TRUE(l.checker->verifyFullState())
            << "corner " << corner << ": " << l.checker->failure();
    }
}

TEST_F(CheckFixture, ExhaustiveLocateAgreementAfterStorm)
{
    Lockstep l = makeLockstep(stormParams(2));
    storm(l, 7, 4000);
    ASSERT_FALSE(l.checker->failed()) << l.checker->failure();
    for (Addr a = 0; a < l.policy->flatSpaceBytes();
         a += kSubblockSize) {
        ASSERT_EQ(l.policy->locate(a), l.checker->reference().locate(a))
            << "flat address 0x" << std::hex << a;
    }
}

TEST_F(CheckFixture, AdversarialPatternsClean)
{
    // One short campaign per pattern family, on top of the 25 mixed
    // campaigns the fuzz_check ctest runs.
    for (uint32_t pat = 0; pat < trace::kFuzzPatternCount; ++pat) {
        CampaignConfig cfg = makeCampaign(900 + pat, 3000);
        cfg.pattern = static_cast<FuzzPattern>(pat);
        const auto trace = trace::generateAdversarialTrace(
            cfg.pattern, cfg.geometry, cfg.seed, cfg.accesses);
        const auto failure = runCampaignTrace(cfg, trace);
        EXPECT_FALSE(failure.has_value())
            << trace::fuzzPatternName(cfg.pattern) << ": "
            << failure->why << " at access " << failure->access_index;
    }
}

TEST_F(CheckFixture, GeneratorsAreDeterministic)
{
    const CampaignConfig cfg = makeCampaign(3, 500);
    const auto a = trace::generateAdversarialTrace(
        cfg.pattern, cfg.geometry, cfg.seed, cfg.accesses);
    const auto b = trace::generateAdversarialTrace(
        cfg.pattern, cfg.geometry, cfg.seed, cfg.accesses);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].paddr, b[i].paddr);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].is_write, b[i].is_write);
    }
}

// ---- injected-fault self-test ---------------------------------------------
//
// 325 seeded campaigns (1.3M accesses) found no divergence in core/,
// so these prove the oracle is not vacuous: corrupt the live policy's
// metadata directly, one corruption class at a time, and require the
// deep sweep to flag it with the right diagnosis.

namespace {

/** A remapped frame to corrupt (the storm guarantees one exists). */
uint64_t
findRemappedFrame(const SilcFmPolicy &policy)
{
    const core::NmMetadata &meta = policy.metadata();
    for (uint64_t f = 0; f < meta.frames(); ++f) {
        if (meta.meta(f).remap != core::kNoRemap)
            return f;
    }
    ADD_FAILURE() << "storm left no remapped frame";
    return 0;
}

} // namespace

TEST_F(CheckFixture, DetectsRemapCorruption)
{
    Lockstep l = makeLockstep(stormParams(2));
    storm(l, 11, 3000);
    ASSERT_TRUE(l.checker->verifyFullState()) << l.checker->failure();

    const uint64_t f = findRemappedFrame(*l.policy);
    l.policy->metadataForFaultInjection().meta(f).remap += 1;

    EXPECT_FALSE(l.checker->verifyFullState());
    EXPECT_TRUE(l.checker->failed());
    EXPECT_NE(l.checker->failure().find("remap"), std::string::npos)
        << l.checker->failure();
}

TEST_F(CheckFixture, DetectsBitvectorCorruption)
{
    Lockstep l = makeLockstep(stormParams(2));
    storm(l, 12, 3000);
    ASSERT_TRUE(l.checker->verifyFullState()) << l.checker->failure();

    const uint64_t f = findRemappedFrame(*l.policy);
    core::WayMeta &m = l.policy->metadataForFaultInjection().meta(f);
    // Flip one residency bit (whichever direction).
    if (m.bv.test(13))
        m.bv.clear(13);
    else
        m.bv.set(13);

    EXPECT_FALSE(l.checker->verifyFullState());
    EXPECT_NE(l.checker->failure().find("residency bitvector"),
              std::string::npos)
        << l.checker->failure();
}

TEST_F(CheckFixture, DetectsLockBitCorruption)
{
    SilcFmParams p = stormParams(2);
    p.hot_threshold = 3;   // make locks plentiful
    Lockstep l = makeLockstep(p);
    storm(l, 13, 3000);
    ASSERT_TRUE(l.checker->verifyFullState()) << l.checker->failure();

    core::WayMeta &m = l.policy->metadataForFaultInjection().meta(
        findRemappedFrame(*l.policy));
    m.locked = !m.locked;

    EXPECT_FALSE(l.checker->verifyFullState());
    EXPECT_NE(l.checker->failure().find("lock bit"), std::string::npos)
        << l.checker->failure();
}

TEST_F(CheckFixture, DetectsLruCorruption)
{
    Lockstep l = makeLockstep(stormParams(4));
    storm(l, 14, 3000);
    ASSERT_TRUE(l.checker->verifyFullState()) << l.checker->failure();

    l.policy->metadataForFaultInjection().meta(0).lru += 1'000'000;

    EXPECT_FALSE(l.checker->verifyFullState());
    EXPECT_NE(l.checker->failure().find("LRU"), std::string::npos)
        << l.checker->failure();
}

TEST_F(CheckFixture, LatchedFailureSticksAndStopsChecking)
{
    Lockstep l = makeLockstep(stormParams(2));
    storm(l, 15, 2000);
    l.policy->metadataForFaultInjection()
        .meta(findRemappedFrame(*l.policy))
        .remap += 1;
    ASSERT_FALSE(l.checker->verifyFullState());
    const std::string first = l.checker->failure();
    const uint64_t checked = l.checker->accessesChecked();

    // Further traffic neither clears nor replaces the latched failure.
    storm(l, 16, 100);
    EXPECT_TRUE(l.checker->failed());
    EXPECT_EQ(l.checker->failure(), first);
    EXPECT_EQ(l.checker->accessesChecked(), checked);
}

TEST_F(CheckFixture, PanicModeDiesOnDivergence)
{
    DifferentialChecker::Options opts;
    opts.panic_on_divergence = true;
    Lockstep l = makeLockstep(stormParams(2), opts);
    storm(l, 17, 2000);
    l.policy->metadataForFaultInjection()
        .meta(findRemappedFrame(*l.policy))
        .remap += 1;
    EXPECT_DEATH(l.checker->verifyFullState(), "differential oracle");
}

// ---- campaign machinery ---------------------------------------------------

TEST_F(CheckFixture, CampaignDerivationIsDeterministic)
{
    const CampaignConfig a = makeCampaign(99, 1000);
    const CampaignConfig b = makeCampaign(99, 1000);
    EXPECT_EQ(describeCampaign(a), describeCampaign(b));
    EXPECT_EQ(a.schemes.silc.associativity, b.schemes.silc.associativity);
    EXPECT_EQ(a.pattern, b.pattern);
}

TEST_F(CheckFixture, CampaignTraceIsSchemeIndependent)
{
    // A failure report of (scheme, seed) must replay the same stream:
    // the scheme selects the policy, never the trace or the knobs of
    // the other schemes.
    const CampaignConfig a = makeCampaign(99, 1000, "silcfm");
    const CampaignConfig b = makeCampaign(99, 1000, "memcache");
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.schemes.silc.associativity, b.schemes.silc.associativity);
    EXPECT_EQ(a.schemes.hma.epoch_ticks, b.schemes.hma.epoch_ticks);
    EXPECT_EQ(a.schemes.memcache.mem_percent,
              b.schemes.memcache.mem_percent);
    EXPECT_EQ(a.scheme, "silcfm");
    EXPECT_EQ(b.scheme, "memcache");
}

TEST_F(CheckFixture, ShrinkTraceFindsMinimalPair)
{
    // Synthetic oracle: the "failure" needs accesses A then B in order.
    const Addr A = 0x1000, B = 0x2000;
    std::vector<FuzzAccess> trace;
    Rng rng(5);
    for (int i = 0; i < 60; ++i)
        trace.push_back(FuzzAccess{0x40 * (rng.below(64) + 100), 0, false});
    trace.insert(trace.begin() + 20, FuzzAccess{A, 0, false});
    trace.insert(trace.begin() + 45, FuzzAccess{B, 0, false});

    auto fails = [&](const std::vector<FuzzAccess> &t) {
        bool seen_a = false;
        for (const FuzzAccess &acc : t) {
            if (acc.paddr == A)
                seen_a = true;
            if (acc.paddr == B && seen_a)
                return true;
        }
        return false;
    };
    ASSERT_TRUE(fails(trace));

    const auto minimal = shrinkTrace(trace, fails);
    ASSERT_EQ(minimal.size(), 2u);
    EXPECT_EQ(minimal[0].paddr, A);
    EXPECT_EQ(minimal[1].paddr, B);
}

TEST_F(CheckFixture, FuzzTraceRoundTripsThroughFile)
{
    const CampaignConfig cfg = makeCampaign(21, 300);
    const auto trace = trace::generateAdversarialTrace(
        cfg.pattern, cfg.geometry, cfg.seed, cfg.accesses);

    const std::string path = "check_roundtrip.silctrace";
    writeFuzzTrace(path, trace);
    const auto loaded = loadFuzzTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].paddr, trace[i].paddr);
        EXPECT_EQ(loaded[i].pc, trace[i].pc);
        EXPECT_EQ(loaded[i].is_write, trace[i].is_write);
    }
}

TEST_F(CheckFixture, ReplayedCampaignTraceStaysClean)
{
    const CampaignConfig cfg = makeCampaign(33, 1500);
    const auto trace = trace::generateAdversarialTrace(
        cfg.pattern, cfg.geometry, cfg.seed, cfg.accesses);
    const std::string path = "check_replay.silctrace";
    writeFuzzTrace(path, trace);
    const auto loaded = loadFuzzTrace(path);
    std::remove(path.c_str());
    EXPECT_FALSE(runCampaignTrace(cfg, loaded).has_value());
}

// ---- shadow-data oracle (tier 1) ------------------------------------------
//
// The shadow checker tracks which flat block's last-written data every
// device location holds, so it works for any MemOrganization.  Prove it
// (a) stays clean on every registered scheme and (b) catches each
// corruption class in the cache-like rivals, whose BlockCacheDir
// carries the fault-injection hooks.

TEST_F(CheckFixture, ShadowCleanOnEveryRegisteredScheme)
{
    const policy::SchemeRegistry &reg =
        policy::SchemeRegistry::instance();
    for (const std::string &name : reg.names()) {
        const policy::SchemeConfig params;
        std::unique_ptr<policy::FlatMemoryPolicy> p =
            reg.resolve(name).factory(params, env_);
        // The table wires each name to the class configuration that
        // reports it (rand/fmonly and dramcache/memcache share a
        // class), and fmonly drops the env's NM device.
        EXPECT_STREQ(p->name(), name.c_str());
        if (name == "fmonly") {
            EXPECT_EQ(p->flatSpaceBytes(), env_.fm->capacity());
        }
        ShadowChecker shadow(*p);
        p->addAccessObserver(&shadow);
        Rng rng(77);
        Tick now = 0;
        const uint64_t blocks = p->flatSpaceBytes() / kSubblockSize;
        for (int i = 0; i < 4000; ++i) {
            p->demandAccess(rng.below(blocks) * kSubblockSize,
                            rng.chance(0.3), 0, 0x400 + rng.below(8) * 4,
                            nullptr, now);
            p->tick(now);
            now += 7;
        }
        EXPECT_FALSE(shadow.failed())
            << name << ": " << shadow.failure();
        EXPECT_TRUE(shadow.verifyFullState())
            << name << ": " << shadow.failure();
        EXPECT_EQ(shadow.accessesChecked(), 4000u) << name;
    }
}

namespace {

enum class CacheFault { LostWrite, DuplicateBlock, CapacityOverflow };

/**
 * Inject one BlockCacheDir corruption class into @p p and require the
 * shadow sweep to flag it with the right diagnosis.  @p base is the
 * flat address of cacheable block 0 (the static-region size for
 * MemCache, 0 for the pure cache).
 */
void
runCacheFaultScenario(policy::MemCachePolicy &p, Addr base,
                      CacheFault fault, const char *expect_substr)
{
    ShadowChecker shadow(p);
    p.addAccessObserver(&shadow);
    const uint64_t sets = p.directory().sets();
    const uint32_t ways = p.directory().ways();
    Tick now = 0;
    auto access = [&](uint64_t block, bool write) {
        p.demandAccess(base + block * kSubblockSize, write, 0, 0x400,
                       nullptr, now);
        now += 7;
    };

    switch (fault) {
      case CacheFault::LostWrite:
        // Dirty-fill block 5, drop its dirty bit, then evict it with
        // same-set conflict fills: the written line is silently
        // discarded instead of being copied back to its FM home.
        access(5, true);
        p.directoryForFaultInjection().faultClearDirty(5);
        for (uint32_t k = 1; k <= ways; ++k)
            access(5 + k * sets, false);
        break;
      case CacheFault::DuplicateBlock:
        // Two resident blocks end up claiming one NM slot.
        // Block 10 sweeps first and claims the slot; 11 then collides.
        access(10, false);
        access(11, false);
        p.directoryForFaultInjection().faultAliasInto(11, 10);
        break;
      case CacheFault::CapacityOverflow:
        // A directory entry escapes the device.
        access(3, false);
        p.directoryForFaultInjection().faultMapToSlot(
            3, p.directory().slots() + 123);
        break;
    }

    EXPECT_FALSE(shadow.verifyFullState());
    EXPECT_TRUE(shadow.failed());
    EXPECT_NE(shadow.failure().find(expect_substr), std::string::npos)
        << shadow.failure();
}

} // namespace

class CacheShadowFaults : public CheckFixture
{
  protected:
    policy::MemCacheParams
    dcParams()
    {
        policy::MemCacheParams p;
        p.mem_percent = 0;
        p.ways = 1;
        return p;
    }

    policy::MemCacheParams
    mcParams()
    {
        policy::MemCacheParams p;
        p.mem_percent = 50;
        p.ways = 2;
        return p;
    }
};

TEST_F(CacheShadowFaults, DramCacheLostWriteDetected)
{
    policy::MemCachePolicy p(env_, dcParams());
    runCacheFaultScenario(p, 0, CacheFault::LostWrite, "lost write");
}

TEST_F(CacheShadowFaults, DramCacheDuplicateBlockDetected)
{
    policy::MemCachePolicy p(env_, dcParams());
    runCacheFaultScenario(p, 0, CacheFault::DuplicateBlock,
                          "duplicate mapping");
}

TEST_F(CacheShadowFaults, DramCacheCapacityOverflowDetected)
{
    policy::MemCachePolicy p(env_, dcParams());
    runCacheFaultScenario(p, 0, CacheFault::CapacityOverflow,
                          "capacity overflow");
}

TEST_F(CacheShadowFaults, MemCacheLostWriteDetected)
{
    policy::MemCachePolicy p(env_, mcParams());
    runCacheFaultScenario(p, p.staticBytes(), CacheFault::LostWrite,
                          "lost write");
}

TEST_F(CacheShadowFaults, MemCacheDuplicateBlockDetected)
{
    policy::MemCachePolicy p(env_, mcParams());
    runCacheFaultScenario(p, p.staticBytes(),
                          CacheFault::DuplicateBlock,
                          "duplicate mapping");
}

TEST_F(CacheShadowFaults, MemCacheCapacityOverflowDetected)
{
    policy::MemCachePolicy p(env_, mcParams());
    runCacheFaultScenario(p, p.staticBytes(),
                          CacheFault::CapacityOverflow,
                          "capacity overflow");
}

TEST_F(CacheShadowFaults, ShadowPanicModeDiesOnCorruption)
{
    policy::MemCachePolicy p(env_, dcParams());
    ShadowChecker::Options opts;
    opts.panic_on_divergence = true;
    ShadowChecker shadow(p, opts);
    p.addAccessObserver(&shadow);
    p.demandAccess(3 * kSubblockSize, false, 0, 0x400, nullptr, 0);
    p.directoryForFaultInjection().faultMapToSlot(
        3, p.directory().slots() + 123);
    EXPECT_DEATH(shadow.verifyFullState(), "shadow oracle");
}

// ---- System integration ---------------------------------------------------

TEST(CheckSystem, FullSystemRunsCleanUnderOracle)
{
    sim::SystemConfig cfg = sim::SystemConfig::defaults();
    cfg.cores = 2;
    cfg.instructions_per_core = 40'000;
    cfg.nm_bytes = 1_MiB;
    cfg.fm_bytes = 4_MiB;
    cfg.scheme = "silcfm";
    cfg.silc.aging_interval = 2'000;
    cfg.silc.hot_threshold = 8;
    cfg.check = true;
    sim::System system(cfg);
    const sim::SimResult r = system.run();   // panics on divergence
    EXPECT_GT(r.ipc, 0.0);
}

TEST(CheckSystem, CheckRunsShadowTierOnEveryScheme)
{
    // check=true used to be SILC-FM-only; now every scheme gets at
    // least the panic-mode shadow tier, so a short full-system run per
    // registered scheme must complete cleanly.
    for (const std::string &scheme :
         policy::SchemeRegistry::instance().names()) {
        sim::SystemConfig cfg = sim::SystemConfig::defaults();
        cfg.cores = 1;
        cfg.instructions_per_core = 10'000;
        cfg.nm_bytes = 1_MiB;
        cfg.fm_bytes = 4_MiB;
        cfg.scheme = scheme;
        cfg.check = true;
        sim::System system(cfg);
        const sim::SimResult r = system.run();
        EXPECT_GT(r.ipc, 0.0) << scheme;
    }
}
