/**
 * @file
 * Tests of the multi-tenant trace composition (trace/tenants.hh): the
 * tenant mix must be deterministic, snapshot/restore-exact, confined to
 * per-tenant address windows, churn must honour the active-population
 * floor, and a full multi-tenant System run must stay byte-identical
 * across intra-simulation thread counts like every other source.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/serialize.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"
#include "trace/tenants.hh"

using namespace silc;
using namespace silc::trace;

namespace {

TenantMixParams
mixParams(uint32_t tenants, uint64_t churn = 0)
{
    TenantMixParams p;
    p.tenants = tenants;
    p.min_active = 2;
    p.zipf_alpha = 0.9;
    p.churn_interval = churn;
    return p;
}

bool
sameInstruction(const TraceInstruction &a, const TraceInstruction &b)
{
    return a.is_mem == b.is_mem && a.is_write == b.is_write &&
           a.vaddr == b.vaddr && a.pc == b.pc;
}

} // namespace

TEST(Tenants, DeterministicStream)
{
    const WorkloadProfile &profile = findProfile("mcf");
    TenantMixSource a(mixParams(4, 500), profile, 42);
    TenantMixSource b(mixParams(4, 500), profile, 42);
    for (int i = 0; i < 20'000; ++i) {
        ASSERT_TRUE(sameInstruction(a.next(), b.next())) << "at " << i;
    }
    EXPECT_EQ(a.arrivals(), b.arrivals());
    EXPECT_EQ(a.departures(), b.departures());
}

TEST(Tenants, SeedChangesStream)
{
    const WorkloadProfile &profile = findProfile("mcf");
    TenantMixSource a(mixParams(4), profile, 1);
    TenantMixSource b(mixParams(4), profile, 2);
    int differing = 0;
    for (int i = 0; i < 5'000; ++i) {
        if (!sameInstruction(a.next(), b.next()))
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(Tenants, AddressWindowsIsolateTenants)
{
    const WorkloadProfile &profile = findProfile("milc");
    TenantMixSource src(mixParams(8, 300), profile, 7);
    for (int i = 0; i < 50'000; ++i) {
        const TraceInstruction ins = src.next();
        if (!ins.is_mem)
            continue;
        // The high bits name the tenant; the constructor guarantees the
        // generator's footprint fits below the window, so the id can be
        // recovered exactly and windows cannot alias.
        const Addr tenant = ins.vaddr >> TenantMixSource::kTenantAddrBits;
        ASSERT_LT(tenant, 8u);
    }
    // With Zipf skew plus churn, more than one tenant must have run.
    uint32_t tenants_used = 0;
    for (uint32_t t = 0; t < src.tenants(); ++t)
        tenants_used += src.tenantMemOps(t) > 0 ? 1 : 0;
    EXPECT_GT(tenants_used, 1u);
}

TEST(Tenants, ZipfSkewsInstructionShares)
{
    // Static population (no churn): tenant 0 carries the largest share
    // under the Zipf popularity ranking.
    const WorkloadProfile &profile = findProfile("mcf");
    TenantMixSource src(mixParams(6), profile, 11);
    for (int i = 0; i < 60'000; ++i)
        src.next();
    for (uint32_t t = 1; t < src.tenants(); ++t)
        EXPECT_GE(src.tenantInstructions(0), src.tenantInstructions(t))
            << "tenant " << t;
}

TEST(Tenants, ChurnHonoursMinActive)
{
    const WorkloadProfile &profile = findProfile("mcf");
    TenantMixSource src(mixParams(5, 100), profile, 3);
    for (int i = 0; i < 40'000; ++i) {
        src.next();
        ASSERT_GE(src.activeTenants(), 2u);
    }
    // Churn actually happened at this cadence.
    EXPECT_GT(src.arrivals() + src.departures(), 0u);
}

TEST(Tenants, SnapshotRestoreRoundTrips)
{
    const WorkloadProfile &profile = findProfile("mcf");
    TenantMixSource src(mixParams(4, 250), profile, 42);
    for (int i = 0; i < 7'500; ++i)
        src.next();

    BlobWriter w;
    src.snapshot(w);

    std::vector<TraceInstruction> expected;
    for (int i = 0; i < 5'000; ++i)
        expected.push_back(src.next());

    TenantMixSource fresh(mixParams(4, 250), profile, 42);
    BlobReader r(w.data());
    fresh.restore(r);
    for (int i = 0; i < 5'000; ++i) {
        ASSERT_TRUE(sameInstruction(fresh.next(), expected[i]))
            << "diverged at " << i;
    }
}

// ---- Full-system integration ------------------------------------------------

namespace {

sim::SystemConfig
tenantConfig(uint32_t tenants)
{
    sim::ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = 40'000;
    opts.nm_bytes = 4 * 1024 * 1024;
    opts.fm_bytes = 16 * 1024 * 1024;
    sim::SystemConfig cfg = sim::makeConfig("mcf", "silcfm", opts);
    cfg.tenants = tenants;
    cfg.tenant_churn_interval = 2'000;
    return cfg;
}

} // namespace

TEST(TenantsSystem, MultiTenantRunCompletes)
{
    sim::System system(tenantConfig(4));
    sim::SimResult r = system.run();
    EXPECT_FALSE(r.hit_tick_limit);
    EXPECT_EQ(r.instructions, 80'000u);
    EXPECT_GT(r.ipc, 0.0);

    // Both cores got a tenant mix and spread work over the tenants.
    const auto *mix = dynamic_cast<const trace::TenantMixSource *>(
        &system.traceSource(0));
    ASSERT_NE(mix, nullptr);
    uint64_t total = 0;
    for (uint32_t t = 0; t < mix->tenants(); ++t)
        total += mix->tenantInstructions(t);
    EXPECT_GT(total, 0u);
}

TEST(TenantsSystem, DistinctTenantCountsDiverge)
{
    // Consolidation must actually change the reference stream.
    sim::SimResult two = sim::System(tenantConfig(2)).run();
    sim::SimResult four = sim::System(tenantConfig(4)).run();
    EXPECT_NE(two.ticks, four.ticks);
}

TEST(TenantsSystem, ShadowCheckedMultiTenantRun)
{
    // The scheme-agnostic shadow oracle must hold under tenant churn
    // (it fatal()s on the first violation, so completing is the pass).
    sim::SystemConfig cfg = tenantConfig(3);
    cfg.check = true;
    cfg.instructions_per_core = 20'000;
    sim::SimResult r = sim::System(cfg).run();
    EXPECT_FALSE(r.hit_tick_limit);
}
