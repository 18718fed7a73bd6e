#include "check/campaign.hh"

#include <algorithm>
#include <sstream>

#include "check/differential.hh"
#include "check/shadow.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/dram_system.hh"
#include "dram/timing.hh"
#include "trace/file_trace.hh"

namespace silc {
namespace check {

CampaignConfig
makeCampaign(uint64_t seed, size_t accesses, const std::string &scheme)
{
    // Decorrelated from the trace generator's stream, which hashes the
    // same seed differently.
    Rng rng(seed ^ 0xF022DD17C4A9B36DULL);

    CampaignConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = seed;
    cfg.accesses = accesses;
    cfg.geometry.nm_bytes = uint64_t(1) << 20;
    cfg.geometry.fm_bytes = uint64_t(4) << 20;

    core::SilcFmParams &p = cfg.schemes.silc;
    const uint32_t assoc_choices[] = {1, 2, 4};
    p.associativity = assoc_choices[rng.below(3)];
    cfg.geometry.associativity = p.associativity;

    p.enable_locking = rng.chance(0.8);
    p.enable_bypass = rng.chance(0.7);
    p.enable_predictor = true;
    p.enable_history_fetch = rng.chance(0.8);

    // Small thresholds/intervals/windows relative to the trace length
    // so every state machine cycles many times per campaign.
    p.hot_threshold = static_cast<uint32_t>(rng.between(3, 12));
    const uint64_t aging_choices[] = {64, 256, 1024, 100'000};
    p.aging_interval = aging_choices[rng.below(4)];
    p.bypass_target = rng.chance(0.5) ? 0.8 : 0.5;
    const uint64_t window_choices[] = {32, 128, 512};
    p.bypass_window = window_choices[rng.below(3)];
    // Including tiny tables: hash collisions recall the wrong vector,
    // which the oracle must reproduce bit-exactly.
    const uint64_t history_choices[] = {uint64_t(1) << 8,
                                        uint64_t(1) << 12,
                                        uint64_t(1) << 16};
    p.history_entries = history_choices[rng.below(3)];
    p.history_index_by_page = rng.chance(0.5);
    const uint32_t min_bits_choices[] = {2, 4, 8, 12};
    p.history_min_bits = min_bits_choices[rng.below(4)];
    const uint32_t full_fetch_choices[] = {1, 4, 8};
    p.lock_full_fetch_min_used = full_fetch_choices[rng.below(3)];
    p.model_metadata_traffic = rng.chance(0.5);

    cfg.pattern = static_cast<trace::FuzzPattern>(
        rng.below(trace::kFuzzPatternCount));

    // Rival-scheme knobs are drawn strictly AFTER the pattern so the
    // silcfm campaign a seed produced before the registry existed is
    // byte-identical (regression seeds stay valid), and unconditionally
    // so the trace for seed N is the same under every scheme.
    policy::HmaParams &h = cfg.schemes.hma;
    const Tick epoch_choices[] = {256, 1024, 4096};
    h.epoch_ticks = epoch_choices[rng.below(3)];
    h.hot_threshold = static_cast<uint32_t>(rng.between(2, 8));
    const uint32_t hma_mig_choices[] = {4, 32, 256};
    h.max_migrations_per_epoch = hma_mig_choices[rng.below(3)];
    h.os_base_overhead = rng.between(0, 64);
    h.os_per_page_overhead = rng.between(0, 16);

    policy::PomParams &pm = cfg.schemes.pom;
    pm.migration_threshold = static_cast<uint32_t>(rng.between(2, 10));
    const uint64_t decay_choices[] = {64, 256, 1024};
    pm.decay_interval = decay_choices[rng.below(3)];

    policy::CameoParams &cm = cfg.schemes.cameo;
    const uint64_t llp_choices[] = {0, uint64_t(1) << 8,
                                    uint64_t(1) << 16};
    cm.llp_entries = llp_choices[rng.below(3)];
    cm.prefetch_degree = rng.chance(0.5) ? 3 : 0;

    policy::MemCacheParams &dc = cfg.schemes.dramcache;
    const uint32_t dc_way_choices[] = {1, 2, 4};
    dc.ways = dc_way_choices[rng.below(3)];
    dc.fill_on_write = rng.chance(0.7);

    policy::MemCacheParams &mc = cfg.schemes.memcache;
    const uint32_t mc_pct_choices[] = {25, 50, 75};
    mc.mem_percent = mc_pct_choices[rng.below(3)];
    mc.ways = rng.chance(0.5) ? 2 : 1;
    mc.fill_on_write = rng.chance(0.7);
    return cfg;
}

std::string
describeCampaign(const CampaignConfig &cfg)
{
    const core::SilcFmParams &p = cfg.schemes.silc;
    std::ostringstream os;
    os << cfg.scheme << " "
       << trace::fuzzPatternName(cfg.pattern) << " assoc=" << p.associativity
       << " lock=" << p.enable_locking << " bypass=" << p.enable_bypass
       << " hist=" << p.enable_history_fetch
       << " thr=" << p.hot_threshold << " aging=" << p.aging_interval
       << " window=" << p.bypass_window
       << " histEntries=" << p.history_entries
       << " byPage=" << p.history_index_by_page
       << " minBits=" << p.history_min_bits
       << " fullFetch=" << p.lock_full_fetch_min_used;
    return os.str();
}

std::optional<CampaignFailure>
runCampaignTrace(const CampaignConfig &cfg,
                 const std::vector<trace::FuzzAccess> &accesses)
{
    // Functional state updates synchronously in demandAccess, so the
    // devices never need to tick: requests queue and are dropped with
    // the harness.
    EventQueue events;
    dram::DramSystem nm(dram::hbm2Params(), cfg.geometry.nm_bytes,
                        events);
    dram::DramSystem fm(dram::ddr3Params(), cfg.geometry.fm_bytes,
                        events);

    policy::PolicyEnv env;
    env.nm = &nm;
    env.fm = &fm;
    env.events = &events;

    std::unique_ptr<policy::FlatMemoryPolicy> policy =
        policy::SchemeRegistry::instance().resolve(cfg.scheme).factory(
            cfg.schemes, env);

    // Tier 2, attached first as in sim::System: metadata lockstep for
    // the policy that has a reference model.
    std::unique_ptr<DifferentialChecker> checker;
    if (const auto *silc =
            dynamic_cast<const core::SilcFmPolicy *>(policy.get())) {
        checker = std::make_unique<DifferentialChecker>(*silc);
        policy->addAccessObserver(checker.get());
    }

    // Tier 1: the shadow-data invariant checker shadows every scheme.
    ShadowChecker shadow(*policy);
    policy->addAccessObserver(&shadow);

    // The generators emit addresses across the full NM+FM span; fold
    // them into this scheme's flat space (cache-like schemes expose
    // less).  flatSpaceBytes is 64B-aligned, so alignment survives.
    const uint64_t flat = policy->flatSpaceBytes();

    Tick now = 0;
    for (size_t i = 0; i < accesses.size(); ++i) {
        const trace::FuzzAccess &a = accesses[i];
        policy->demandAccess(a.paddr % flat, a.is_write, 0, a.pc,
                             nullptr, now);
        // Epoch schemes migrate from tick(); a no-op for the others.
        policy->tick(now);
        now += 4;
        if (shadow.failed())
            return CampaignFailure{i, shadow.failure()};
        if (checker && checker->failed())
            return CampaignFailure{i, checker->failure()};
    }
    shadow.verifyFullState();
    if (shadow.failed())
        return CampaignFailure{accesses.size(), shadow.failure()};
    if (checker) {
        checker->verifyFullState();
        if (checker->failed())
            return CampaignFailure{accesses.size(), checker->failure()};
    }
    return std::nullopt;
}

std::vector<trace::FuzzAccess>
shrinkTrace(std::vector<trace::FuzzAccess> trace,
            const std::function<
                bool(const std::vector<trace::FuzzAccess> &)> &fails)
{
    size_t chunk = std::max<size_t>(1, trace.size() / 2);
    while (true) {
        bool removed_any = false;
        size_t start = 0;
        while (start < trace.size()) {
            const size_t end = std::min(trace.size(), start + chunk);
            std::vector<trace::FuzzAccess> candidate;
            candidate.reserve(trace.size() - (end - start));
            candidate.insert(candidate.end(), trace.begin(),
                             trace.begin() + static_cast<long>(start));
            candidate.insert(candidate.end(),
                             trace.begin() + static_cast<long>(end),
                             trace.end());
            if (!candidate.empty() && fails(candidate)) {
                trace = std::move(candidate);
                removed_any = true;
                // Re-test from the same position: the next chunk slid
                // into it.
            } else {
                start += chunk;
            }
        }
        if (chunk > 1)
            chunk = chunk / 2;
        else if (!removed_any)
            break;
    }
    return trace;
}

void
writeFuzzTrace(const std::string &path,
               const std::vector<trace::FuzzAccess> &accesses)
{
    trace::TraceWriter writer(path);
    for (const trace::FuzzAccess &a : accesses) {
        trace::TraceInstruction ins;
        ins.is_mem = true;
        ins.is_write = a.is_write;
        ins.vaddr = a.paddr;
        ins.pc = a.pc;
        writer.append(ins);
    }
    writer.finish();
}

std::vector<trace::FuzzAccess>
loadFuzzTrace(const std::string &path)
{
    trace::FileTraceReader reader(path);
    std::vector<trace::FuzzAccess> accesses;
    // The reader prefetches: wraps() goes to 1 while delivering the
    // final record, so the wrap test must precede next(), not follow
    // it, or the last access of the file is dropped.
    while (reader.wraps() == 0) {
        const trace::TraceInstruction ins = reader.next();
        if (!ins.is_mem)
            continue;
        accesses.push_back(
            trace::FuzzAccess{ins.vaddr, ins.pc, ins.is_write});
    }
    return accesses;
}

} // namespace check
} // namespace silc
