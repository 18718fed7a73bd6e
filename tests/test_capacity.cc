/**
 * @file
 * Capacity-edge regression tests: paper-scale structure sizes, the
 * sparse metadata representations and checkpoint blobs, the 32-bit
 * truncation guards in the rival policies, and the validated
 * environment parsing of the scale knobs.  Everything here must stay
 * cheap — the point of the sparse representations is that a 1 GiB-NM
 * structure costs memory only for what a run actually touches, and
 * these tests construct such structures directly.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "common/env.hh"
#include "common/serialize.hh"
#include "common/sparse_array.hh"
#include "core/bitvector_table.hh"
#include "core/set_metadata.hh"
#include "dram/dram_system.hh"
#include "policy/cameo.hh"
#include "policy/hma.hh"
#include "policy/pom.hh"
#include "policy/registry.hh"
#include "sample/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace silc;
using namespace silc::sim;

namespace {

SystemConfig
capacityConfig(const std::string &scheme, uint64_t nm_bytes,
               uint64_t fm_bytes)
{
    ExperimentOptions opts;
    opts.cores = 1;
    opts.instructions_per_core = 20'000;
    opts.nm_bytes = nm_bytes;
    opts.fm_bytes = fm_bytes;
    return makeConfig("mcf", scheme, opts);
}

/** RAII environment override for the fromEnv death tests. */
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

// ---- Capacity-edge runs -----------------------------------------------------

TEST(Capacity, MinimumNmRunsToCompletion)
{
    // 64 KiB NM = 32 frames (8 sets at the default associativity):
    // conflict pressure everywhere, but the run must still terminate
    // with sane metrics.
    System system(capacityConfig("silcfm", 64 * 1024, 4 * 1024 * 1024));
    SimResult r = system.run();
    EXPECT_FALSE(r.hit_tick_limit);
    EXPECT_EQ(r.instructions, 20'000u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Capacity, NmEqualsFmRunsToCompletion)
{
    // FM:NM ratio 1 is the degenerate end of the fm_multiple_of_nm
    // trait: every FM page has a whole NM set to itself.
    for (const char *scheme : {"silcfm", "cam", "pom"}) {
        System system(capacityConfig(scheme, 8 * 1024 * 1024,
                                     8 * 1024 * 1024));
        SimResult r = system.run();
        EXPECT_FALSE(r.hit_tick_limit) << scheme;
        EXPECT_GT(r.ipc, 0.0) << scheme;
    }
}

TEST(Capacity, FreshCheckpointSizeIsCapacityIndependent)
{
    // A fresh System has touched nothing, so every checkpointed table is
    // empty: the blob must not grow with the configured capacity.
    const policy::SchemeRegistry &reg = policy::SchemeRegistry::instance();
    for (const std::string &scheme : reg.names()) {
        if (!reg.resolve(scheme).traits.checkpointable)
            continue;
        System small(capacityConfig(scheme, 4_MiB, 16_MiB));
        System large(capacityConfig(scheme, 256_MiB, 1_GiB));
        EXPECT_EQ(sample::capture(small, 0).blob.size(),
                  sample::capture(large, 0).blob.size())
            << scheme;
    }
}

// ---- Sparse metadata --------------------------------------------------------

TEST(Capacity, SparseArrayLookupOfPresentKeyKeepsReferencesValid)
{
    // 16 slots grow once an insertion would pass 70% load, so the 11th
    // entry lands exactly on that boundary without a rehash.  Holding
    // its reference and then looking up a present key (as resolveNative
    // did before touch() took the held `WayMeta &`) must not rehash, or
    // the held reference dangles.
    SparseArray<uint64_t> a;
    for (uint64_t k = 0; k < 10; ++k)
        a.set(k * 1000, k);
    uint64_t &held = a.getOrCreate(10'000);
    ASSERT_EQ(a.size(), 11u);
    const uint64_t *where = a.find(10'000);

    EXPECT_EQ(a.getOrCreate(10'000), 0u);
    EXPECT_EQ(a.getOrCreate(5000), 5u);
    EXPECT_EQ(a.find(10'000), where);
    held = 42;
    EXPECT_EQ(*a.find(10'000), 42u);

    // An insertion past the boundary still grows and keeps every entry.
    a.getOrCreate(99'999) = 7;
    EXPECT_EQ(a.size(), 12u);
    EXPECT_EQ(*a.find(10'000), 42u);
    for (uint64_t k = 0; k < 10; ++k)
        EXPECT_EQ(*a.find(k * 1000), k);
    EXPECT_EQ(*a.find(99'999), 7u);
}

TEST(Capacity, NmMetadataSparseDefaultsAndMaterialization)
{
    // Paper-scale NM: 1 GiB = 524288 frames.  Construction must not
    // allocate per-frame, and const reads must not materialize.
    core::NmMetadata meta(524'288, 4);
    EXPECT_EQ(meta.materializedFrames(), 0u);

    const core::NmMetadata &cmeta = meta;
    EXPECT_EQ(cmeta.meta(0).remap, core::kNoRemap);
    EXPECT_EQ(cmeta.meta(524'287).lru, 0u);
    EXPECT_FALSE(cmeta.meta(123'456).locked);
    EXPECT_EQ(meta.materializedFrames(), 0u);

    meta.meta(123'456).remap = 77;
    meta.touch(meta.meta(42));
    EXPECT_EQ(meta.materializedFrames(), 2u);
    EXPECT_EQ(cmeta.meta(123'456).remap, 77u);
}

TEST(Capacity, NmMetadataSnapshotRoundTripsSparsely)
{
    core::NmMetadata meta(524'288, 4);
    meta.meta(3).remap = 1000;
    meta.meta(3).bv.set(5);
    meta.meta(3).locked = true;
    meta.meta(400'000).fm_counter = 9;
    meta.meta(400'000).first_pc = 0xabc;
    meta.meta(400'000).has_signature = true;
    meta.touch(meta.meta(3));

    Blob w;
    meta.checkpoint(w);
    // Sparse blob: nowhere near 524288 frames' worth of bytes.
    EXPECT_LT(w.bytes().size(), 4096u);

    core::NmMetadata fresh(524'288, 4);
    Blob r(w.bytes());
    fresh.checkpoint(r);
    r.done();
    EXPECT_EQ(fresh.materializedFrames(), 2u);
    const core::NmMetadata &cf = fresh;
    EXPECT_EQ(cf.meta(3).remap, 1000u);
    EXPECT_TRUE(cf.meta(3).bv.test(5));
    EXPECT_TRUE(cf.meta(3).locked);
    EXPECT_EQ(cf.meta(400'000).fm_counter, 9);
    EXPECT_EQ(cf.meta(400'000).first_pc, 0xabcu);
    EXPECT_TRUE(cf.meta(400'000).has_signature);
    EXPECT_EQ(cf.meta(99).remap, core::kNoRemap);
}

TEST(Capacity, BitVectorTableSparseSnapshotRoundTrip)
{
    // The paper's 1M-entry table, with only two signatures saved.
    core::BitVectorTable table(1'048'576);
    SubblockVector bv;
    bv.set(0);
    bv.set(31);
    table.save(0x400, 0x1000, bv);
    SubblockVector bv2;
    bv2.set(7);
    table.save(0x404, 0x2000, bv2);
    EXPECT_EQ(table.populated(), 2u);

    Blob w;
    table.checkpoint(w);
    EXPECT_LT(w.bytes().size(), 256u);

    core::BitVectorTable fresh(1'048'576);
    Blob r(w.bytes());
    fresh.checkpoint(r);
    r.done();
    EXPECT_EQ(fresh.populated(), 2u);
    EXPECT_EQ(fresh.lookup(0x400, 0x1000).raw(), bv.raw());
    EXPECT_EQ(fresh.lookup(0x404, 0x2000).raw(), bv2.raw());
    EXPECT_TRUE(fresh.lookup(0x408, 0x3000).none());
}

// ---- 32-bit truncation guards -----------------------------------------------

class CapacityGuards : public ::testing::Test
{
  protected:
    /** Build a policy environment with the given device capacities. */
    void
    makeEnv(uint64_t nm_bytes, uint64_t fm_bytes)
    {
        nm_ = std::make_unique<dram::DramSystem>(dram::hbm2Params(),
                                                 nm_bytes, events_);
        fm_ = std::make_unique<dram::DramSystem>(dram::ddr3Params(),
                                                 fm_bytes, events_);
        env_.nm = nm_.get();
        env_.fm = fm_.get();
        env_.events = &events_;
    }

    EventQueue events_;
    std::unique_ptr<dram::DramSystem> nm_;
    std::unique_ptr<dram::DramSystem> fm_;
    policy::PolicyEnv env_;
};

TEST_F(CapacityGuards, CameoRejectsRatioAbove255)
{
    // 512 FM segments per congruence group would wrap CAMEO's 8-bit
    // slot indices; the constructor must refuse, not truncate.
    makeEnv(1_MiB, 512_MiB);
    EXPECT_DEATH(policy::CameoPolicy(env_, policy::CameoParams{}),
                 "8-bit slot index");
}

TEST_F(CapacityGuards, PomRejectsRatioAbove255)
{
    makeEnv(1_MiB, 512_MiB);
    EXPECT_DEATH(policy::PomPolicy(env_, policy::PomParams{}),
                 "8-bit member index");
}

TEST_F(CapacityGuards, HmaRejectsFlatSpaceAbove8TiB)
{
    // 16 TiB of FM alone is ~2^33 pages: over HMA's 32-bit page ids.
    // DramSystem does not allocate proportionally to capacity, so the
    // construction attempt itself is cheap.
    makeEnv(1_MiB, 16ULL * 1024 * 1024 * 1024 * 1024);
    EXPECT_DEATH(policy::HmaPolicy(env_, policy::HmaParams{}),
                 "32-bit page");
}

TEST_F(CapacityGuards, CameoAcceptsRatio255)
{
    makeEnv(1_MiB, 255_MiB);
    policy::CameoPolicy p(env_, policy::CameoParams{});
    EXPECT_EQ(p.flatSpaceBytes(), 256_MiB);
}

// ---- Validated environment parsing ------------------------------------------

TEST(CapacityEnv, MebibyteKnobsValidate)
{
    {
        ScopedEnv e("SILC_NM_MIB", "1024");
        EXPECT_EQ(ExperimentOptions::fromEnv().nm_bytes,
                  1024ULL << 20);
    }
    {
        ScopedEnv e("SILC_NM_MIB", "0");
        EXPECT_DEATH(ExperimentOptions::fromEnv(),
                     "SILC_NM_MIB must be positive");
    }
    {
        ScopedEnv e("SILC_NM_MIB", "4goofy");
        EXPECT_DEATH(ExperimentOptions::fromEnv(),
                     "SILC_NM_MIB must be a positive integer");
    }
    {
        // 2 TiB in MiB: over the 1 TiB cap (and on the old unvalidated
        // path, values above 2^44 wrapped the <<20 silently).
        ScopedEnv e("SILC_FM_MIB", "2097152");
        EXPECT_DEATH(ExperimentOptions::fromEnv(),
                     "SILC_FM_MIB=2097152 exceeds the supported maximum");
    }
}

TEST(CapacityEnv, CoreAndInstructionKnobsValidate)
{
    {
        ScopedEnv e("SILC_CORES", "0");
        EXPECT_DEATH(ExperimentOptions::fromEnv(),
                     "SILC_CORES must be positive");
    }
    {
        // The old uint32_t cast would have truncated this to 0 cores.
        ScopedEnv e("SILC_CORES", "4294967296");
        EXPECT_DEATH(ExperimentOptions::fromEnv(),
                     "SILC_CORES=4294967296 exceeds");
    }
    {
        ScopedEnv e("SILC_INSTR", "0");
        EXPECT_DEATH(ExperimentOptions::fromEnv(),
                     "SILC_INSTR must be positive");
    }
}
