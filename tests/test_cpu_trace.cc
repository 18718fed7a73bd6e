/**
 * @file
 * Unit tests for the trace generators (profiles, address properties,
 * determinism, phases) and the ROB-limit core model.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cpu/core.hh"
#include "trace/generator.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::trace;
using namespace silc::cpu;

// ---- profiles ------------------------------------------------------------

TEST(Profiles, FourteenBenchmarksInClasses)
{
    const auto &profiles = table3Profiles();
    ASSERT_EQ(profiles.size(), 14u);
    std::map<MpkiClass, int> counts;
    for (const auto &p : profiles)
        counts[p.mpki_class]++;
    EXPECT_EQ(counts[MpkiClass::Low], 4);
    EXPECT_EQ(counts[MpkiClass::Medium], 5);
    EXPECT_EQ(counts[MpkiClass::High], 5);
}

TEST(Profiles, NamesUniqueAndFindable)
{
    std::set<std::string> names;
    for (const auto &name : profileNames())
        EXPECT_TRUE(names.insert(name).second);
    EXPECT_EQ(findProfile("mcf").name, "mcf");
    EXPECT_EQ(findProfile("bwaves").mpki_class, MpkiClass::Low);
    EXPECT_EQ(findProfile("lbm").mpki_class, MpkiClass::High);
}

TEST(Profiles, UnknownProfileIsFatal)
{
    EXPECT_DEATH(findProfile("doom3"), "unknown workload");
}

TEST(Profiles, RepresentativesAreValid)
{
    for (const auto &name : representativeNames())
        EXPECT_NO_FATAL_FAILURE(findProfile(name));
}

TEST(Profiles, FootprintsArePagePositive)
{
    for (const auto &p : table3Profiles()) {
        EXPECT_GT(p.footprintPages(), 0u) << p.name;
        EXPECT_EQ(p.footprint_bytes % kLargeBlockSize, 0u) << p.name;
    }
}

TEST(Profiles, ClassKnobsAreOrdered)
{
    // Memory intensity should not decrease with the MPKI class.
    const auto &low = findProfile("dealii");
    const auto &high = findProfile("mcf");
    EXPECT_LE(low.mem_fraction, high.mem_fraction);
    EXPECT_GE(low.cache_friendly_fraction,
              high.cache_friendly_fraction);
}

// ---- generator -------------------------------------------------------------

TEST(Generator, DeterministicPerSeed)
{
    const auto &p = findProfile("gcc");
    SyntheticGenerator a(p, 7), b(p, 7), c(p, 8);
    bool diverged = false;
    for (int i = 0; i < 5000; ++i) {
        TraceInstruction ia = a.next();
        TraceInstruction ib = b.next();
        TraceInstruction ic = c.next();
        EXPECT_EQ(ia.is_mem, ib.is_mem);
        EXPECT_EQ(ia.vaddr, ib.vaddr);
        EXPECT_EQ(ia.pc, ib.pc);
        diverged |= (ia.vaddr != ic.vaddr || ia.is_mem != ic.is_mem);
    }
    EXPECT_TRUE(diverged);
}

TEST(Generator, MemFractionApproximatelyHonoured)
{
    const auto &p = findProfile("mcf");
    SyntheticGenerator gen(p, 3);
    uint64_t mem = 0;
    const uint64_t total = 200'000;
    for (uint64_t i = 0; i < total; ++i) {
        if (gen.next().is_mem)
            ++mem;
    }
    EXPECT_NEAR(static_cast<double>(mem) / total, p.mem_fraction, 0.02);
    EXPECT_EQ(gen.memOpsGenerated(), mem);
}

TEST(Generator, WriteFractionApproximatelyHonoured)
{
    const auto &p = findProfile("lbm");
    SyntheticGenerator gen(p, 3);
    uint64_t mem = 0, writes = 0;
    for (uint64_t i = 0; i < 300'000; ++i) {
        TraceInstruction ins = gen.next();
        if (ins.is_mem) {
            ++mem;
            writes += ins.is_write;
        }
    }
    EXPECT_NEAR(static_cast<double>(writes) / mem, p.write_fraction,
                0.03);
}

TEST(Generator, AddressesStayInFootprintOrFriendlyRegion)
{
    const auto &p = findProfile("omnet");
    SyntheticGenerator gen(p, 11);
    const Addr data_base = 0x1000'0000;
    const Addr data_end = data_base + p.footprint_bytes;
    for (int i = 0; i < 200'000; ++i) {
        TraceInstruction ins = gen.next();
        if (!ins.is_mem)
            continue;
        const bool in_data =
            ins.vaddr >= data_base && ins.vaddr < data_end;
        const bool in_friendly = ins.vaddr < data_base;
        EXPECT_TRUE(in_data || in_friendly)
            << std::hex << ins.vaddr;
    }
}

TEST(Generator, SpatialDensityRespectsMask)
{
    // A low-density profile must touch only a subset of each page's
    // subblocks through its hot-page path.
    WorkloadProfile p = findProfile("mcf");
    p.stream_fraction = 0.0;             // hot accesses only
    p.cache_friendly_fraction = 0.0;
    p.mem_fraction = 1.0;
    SyntheticGenerator gen(p, 5);
    std::map<uint64_t, std::set<uint32_t>> page_subs;
    for (int i = 0; i < 300'000; ++i) {
        TraceInstruction ins = gen.next();
        const uint64_t page = ins.vaddr >> kLargeBlockBits;
        page_subs[page].insert(subblockOffset(ins.vaddr));
    }
    const uint32_t expected =
        static_cast<uint32_t>(p.page_density * kSubblocksPerBlock + 0.5);
    for (const auto &[page, subs] : page_subs) {
        (void)page;
        EXPECT_LE(subs.size(), expected + 1);
    }
}

TEST(Generator, StreamingTouchesSequentialSubblocks)
{
    WorkloadProfile p = findProfile("lbm");
    p.stream_fraction = 1.0;
    p.cache_friendly_fraction = 0.0;
    p.mem_fraction = 1.0;
    SyntheticGenerator gen(p, 5);
    Addr prev = 0;
    uint64_t sequential = 0, total = 0;
    for (int i = 0; i < 50'000; ++i) {
        TraceInstruction ins = gen.next();
        if (prev != 0 && ins.vaddr == prev + kSubblockSize)
            ++sequential;
        prev = ins.vaddr;
        ++total;
    }
    EXPECT_GT(static_cast<double>(sequential) / total, 0.8);
}

TEST(Generator, PhaseChangesOccurWhenConfigured)
{
    WorkloadProfile p = findProfile("gems");
    ASSERT_GT(p.phase_interval, 0u);
    p.phase_interval = 1'000;
    p.mem_fraction = 1.0;
    SyntheticGenerator gen(p, 5);
    for (int i = 0; i < 10'000; ++i)
        gen.next();
    EXPECT_GE(gen.phaseChanges(), 9u);
}

TEST(Generator, NoPhaseChangesWhenDisabled)
{
    WorkloadProfile p = findProfile("mcf");
    p.phase_interval = 0;
    SyntheticGenerator gen(p, 5);
    for (int i = 0; i < 50'000; ++i)
        gen.next();
    EXPECT_EQ(gen.phaseChanges(), 0u);
}

TEST(Generator, ZipfSkewConcentratesPageAccesses)
{
    WorkloadProfile p = findProfile("xalanc");
    p.stream_fraction = 0.0;
    p.cache_friendly_fraction = 0.0;
    p.mem_fraction = 1.0;
    SyntheticGenerator gen(p, 5);
    std::map<uint64_t, uint64_t> page_counts;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        ++page_counts[gen.next().vaddr >> kLargeBlockBits];
    std::vector<uint64_t> counts;
    for (auto &[page, cnt] : page_counts)
        counts.push_back(cnt);
    std::sort(counts.rbegin(), counts.rend());
    uint64_t top = 0;
    const size_t head = counts.size() / 20;   // top 5% of pages
    for (size_t i = 0; i < head; ++i)
        top += counts[i];
    EXPECT_GT(static_cast<double>(top) / n, 0.25);
}

// ---- core -------------------------------------------------------------------

namespace {

/** Scripted trace: fixed list, then non-memory filler. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceInstruction> script)
        : script_(std::move(script))
    {
    }

    TraceInstruction
    next() override
    {
        if (pos_ < script_.size())
            return script_[pos_++];
        return TraceInstruction{};   // non-memory filler
    }

  private:
    std::vector<TraceInstruction> script_;
    size_t pos_ = 0;
};

/** Memory port with a fixed latency and optional admission control. */
class FixedLatencyPort : public MemoryPort
{
  public:
    explicit FixedLatencyPort(Tick latency) : latency_(latency) {}

    bool
    access(CoreId, Addr, Addr, bool is_write,
           std::function<void(Tick)> done, Tick now) override
    {
        ++accesses_;
        if (reject_next_ > 0) {
            --reject_next_;
            return false;
        }
        if (!is_write && done)
            pending_.push_back({now + latency_, std::move(done)});
        return true;
    }

    /** Fire all completions due at @p now. */
    void
    drain(Tick now)
    {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->first <= now) {
                it->second(it->first);
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }

    void rejectNext(int n) { reject_next_ = n; }
    uint64_t accesses() const { return accesses_; }

  private:
    Tick latency_;
    int reject_next_ = 0;
    uint64_t accesses_ = 0;
    std::vector<std::pair<Tick, std::function<void(Tick)>>> pending_;
};

} // namespace

TEST(Core, RetiresNonMemAtFullWidth)
{
    ScriptedTrace trace({});
    FixedLatencyPort port(10);
    CoreParams params;
    params.instruction_budget = 400;
    Core core(0, params, trace, port);
    Tick t = 0;
    while (!core.done() && t < 10'000)
        core.tick(t++);
    EXPECT_TRUE(core.done());
    // 4-wide with 1-cycle latency: ~100 cycles + pipeline fill.
    EXPECT_LE(core.finishTick(), 110u);
    EXPECT_EQ(core.retired(), 400u);
}

TEST(Core, LoadLatencyStallsRetirement)
{
    std::vector<TraceInstruction> script(1);
    script[0] = TraceInstruction{true, false, 0x1000, 0x400};
    ScriptedTrace trace(script);
    FixedLatencyPort port(500);
    CoreParams params;
    params.instruction_budget = 200;
    Core core(0, params, trace, port);
    Tick t = 0;
    while (!core.done() && t < 10'000) {
        core.tick(t);
        port.drain(t);
        ++t;
    }
    EXPECT_TRUE(core.done());
    // The in-order retire must wait for the 500-tick load.
    EXPECT_GE(core.finishTick(), 500u);
    EXPECT_EQ(core.loads(), 1u);
}

TEST(Core, RobLimitsOutstandingWork)
{
    // All loads, long latency: the ROB (128) fills and dispatch stalls.
    std::vector<TraceInstruction> script;
    for (int i = 0; i < 300; ++i)
        script.push_back(
            TraceInstruction{true, false, Addr(0x1000 + 64 * i), 0x400});
    ScriptedTrace trace(script);
    FixedLatencyPort port(100'000);   // never completes within the test
    CoreParams params;
    params.instruction_budget = 300;
    Core core(0, params, trace, port);
    for (Tick t = 0; t < 2'000; ++t)
        core.tick(t);
    EXPECT_EQ(core.robOccupancy(), kRobEntries);
    EXPECT_EQ(core.dispatched(), kRobEntries);
    EXPECT_GT(core.robFullCycles(), 0u);
}

TEST(Core, StoresRetireWithoutWaiting)
{
    std::vector<TraceInstruction> script;
    for (int i = 0; i < 100; ++i)
        script.push_back(
            TraceInstruction{true, true, Addr(0x1000 + 64 * i), 0x400});
    ScriptedTrace trace(script);
    FixedLatencyPort port(100'000);
    CoreParams params;
    params.instruction_budget = 100;
    Core core(0, params, trace, port);
    Tick t = 0;
    while (!core.done() && t < 10'000)
        core.tick(t++);
    EXPECT_TRUE(core.done());
    EXPECT_LE(core.finishTick(), 200u);
    EXPECT_EQ(core.stores(), 100u);
}

TEST(Core, MemoryBackpressureStallsDispatch)
{
    std::vector<TraceInstruction> script(1);
    script[0] = TraceInstruction{true, false, 0x1000, 0x400};
    ScriptedTrace trace(script);
    FixedLatencyPort port(5);
    port.rejectNext(3);
    CoreParams params;
    params.instruction_budget = 50;
    Core core(0, params, trace, port);
    Tick t = 0;
    while (!core.done() && t < 10'000) {
        core.tick(t);
        port.drain(t);
        ++t;
    }
    EXPECT_TRUE(core.done());
    EXPECT_GE(core.memStallCycles(), 3u);
    // The access is retried, not dropped: 3 rejections + 1 success.
    EXPECT_EQ(port.accesses(), 4u);
    EXPECT_EQ(core.loads(), 1u);
}

TEST(Core, MlpOverlapsIndependentMisses)
{
    // 8 independent loads of 200 ticks each: with MLP they finish in
    // ~200+ ticks, not 1600.
    std::vector<TraceInstruction> script;
    for (int i = 0; i < 8; ++i)
        script.push_back(
            TraceInstruction{true, false, Addr(0x1000 + 64 * i), 0x400});
    ScriptedTrace trace(script);
    FixedLatencyPort port(200);
    CoreParams params;
    params.instruction_budget = 8;
    Core core(0, params, trace, port);
    Tick t = 0;
    while (!core.done() && t < 10'000) {
        core.tick(t);
        port.drain(t);
        ++t;
    }
    EXPECT_TRUE(core.done());
    EXPECT_LT(core.finishTick(), 2 * 200u);
}

TEST(Core, DoneExactlyAtBudget)
{
    ScriptedTrace trace({});
    FixedLatencyPort port(1);
    CoreParams params;
    params.instruction_budget = 7;
    Core core(0, params, trace, port);
    Tick t = 0;
    while (!core.done() && t < 100)
        core.tick(t++);
    EXPECT_EQ(core.retired(), 7u);
    // No further retirement after done.
    core.tick(t + 1);
    EXPECT_EQ(core.retired(), 7u);
}

// ---- trace file record / replay ------------------------------------------------

#include "trace/file_trace.hh"

#include <cstdio>

namespace {

std::string
tempTracePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/silc_" + tag + ".trace";
}

} // namespace

TEST(FileTrace, RoundTripPreservesStream)
{
    const std::string path = tempTracePath("roundtrip");
    const auto &profile = findProfile("gcc");
    {
        SyntheticGenerator gen(profile, 99);
        TraceWriter writer(path);
        writer.record(gen, 5000);
        writer.finish();
        EXPECT_EQ(writer.instructionsWritten(), 5000u);
    }
    SyntheticGenerator ref(profile, 99);
    FileTraceReader reader(path);
    for (int i = 0; i < 5000; ++i) {
        const TraceInstruction a = ref.next();
        const TraceInstruction b = reader.next();
        ASSERT_EQ(a.is_mem, b.is_mem) << "instr " << i;
        if (a.is_mem) {
            EXPECT_EQ(a.is_write, b.is_write);
            EXPECT_EQ(a.vaddr, b.vaddr);
            EXPECT_EQ(a.pc, b.pc);
        }
    }
    std::remove(path.c_str());
}

TEST(FileTrace, WrapsAtEof)
{
    const std::string path = tempTracePath("wrap");
    {
        TraceWriter writer(path);
        writer.append(TraceInstruction{true, false, 0x1000, 0x400});
        writer.append(TraceInstruction{});
        writer.append(TraceInstruction{true, true, 0x2000, 0x404});
        writer.finish();
    }
    FileTraceReader reader(path);
    // 3 records per pass; read three passes.
    for (int pass = 0; pass < 3; ++pass) {
        TraceInstruction a = reader.next();
        EXPECT_TRUE(a.is_mem);
        EXPECT_EQ(a.vaddr, 0x1000u);
        TraceInstruction b = reader.next();
        EXPECT_FALSE(b.is_mem);
        TraceInstruction c = reader.next();
        EXPECT_TRUE(c.is_mem);
        EXPECT_TRUE(c.is_write);
        EXPECT_EQ(c.vaddr, 0x2000u);
    }
    EXPECT_GE(reader.wraps(), 2u);
    EXPECT_EQ(reader.delivered(), 9u);
    std::remove(path.c_str());
}

TEST(FileTrace, RunLengthEncodesNonMem)
{
    const std::string path = tempTracePath("rle");
    {
        TraceWriter writer(path);
        for (int i = 0; i < 100; ++i)
            writer.append(TraceInstruction{});
        writer.append(TraceInstruction{true, false, 0x40, 0x400});
        writer.finish();
    }
    // The file must contain a single "N 100" record.
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);   // header
    std::getline(in, line);
    EXPECT_EQ(line, "N 100");
    std::remove(path.c_str());
}

TEST(FileTrace, MissingFileIsFatal)
{
    EXPECT_DEATH(FileTraceReader("/nonexistent/nope.trace"),
                 "cannot open");
}

TEST(FileTrace, BadHeaderIsFatal)
{
    const std::string path = tempTracePath("bad");
    {
        std::ofstream out(path);
        out << "not a trace\nM r 0 0\n";
    }
    EXPECT_DEATH(FileTraceReader reader(path), "bad header");
    std::remove(path.c_str());
}

// ---- per-benchmark character regressions ------------------------------------------

TEST(Profiles, StreamersAreStreamHeavy)
{
    EXPECT_GT(findProfile("lbm").stream_fraction, 0.8);
    EXPECT_GT(findProfile("lib").stream_fraction, 0.8);
    EXPECT_LT(findProfile("mcf").stream_fraction, 0.2);
    EXPECT_LT(findProfile("omnet").stream_fraction, 0.2);
}

TEST(Profiles, PointerChasersAreSparse)
{
    // PoM's bandwidth-waste argument needs low page density here.
    EXPECT_LT(findProfile("mcf").page_density, 0.3);
    EXPECT_LT(findProfile("omnet").page_density, 0.4);
    EXPECT_GE(findProfile("lbm").page_density, 0.95);
}

TEST(Profiles, PhaseBenchmarksHaveIntervals)
{
    // gems and milc are the paper's short-lived-hot-page examples.
    EXPECT_GT(findProfile("gems").phase_interval, 0u);
    EXPECT_GT(findProfile("milc").phase_interval, 0u);
    // lbm is a pure stream: hot ranking is irrelevant.
    EXPECT_EQ(findProfile("lbm").phase_interval, 0u);
}

TEST(Profiles, XalancIsTheLockingPosterChild)
{
    // Strong skew, low-ish MPKI: hot pages that collide in the index.
    const auto &p = findProfile("xalanc");
    EXPECT_EQ(p.mpki_class, MpkiClass::Low);
    EXPECT_GT(p.zipf_alpha, 1.0);
}
