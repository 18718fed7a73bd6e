#include "sim/system.hh"

#include <cinttypes>
#include <iomanip>
#include <sstream>

#include "check/differential.hh"
#include "check/shadow.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "policy/registry.hh"
#include "policy/static_random.hh"
#include "sim/warming.hh"
#include "trace/file_trace.hh"
#include "trace/profiles.hh"

namespace silc {
namespace sim {

SystemConfig
SystemConfig::defaults()
{
    SystemConfig cfg;

    cfg.l1d.name = "l1d";
    cfg.l1d.size_bytes = 16 * 1024;
    cfg.l1d.associativity = 4;
    cfg.l1d.latency_cycles = 4;

    // Table II uses an 8MB shared L2 against multi-GB footprints
    // (ratio >= 100x); this scaled system keeps the footprint:LLC ratio
    // by using 512KB against 16-64MB footprints (see DESIGN.md).
    cfg.l2.name = "l2";
    cfg.l2.size_bytes = 256 * 1024;
    cfg.l2.associativity = 16;
    cfg.l2.latency_cycles = 11;

    cfg.nm_timing = dram::hbm2Params();
    cfg.fm_timing = dram::ddr3Params();
    // Bandwidth scaling: the paper runs 16 cores against 128-bit x 8
    // HBM channels and 64-bit x 4 DDR3 channels (4:1 NM:FM bandwidth)
    // and is explicitly bandwidth-bound.  This scaled system (8 cores,
    // 1/4 capacities) keeps the 4:1 ratio and the saturation regime by
    // using 64-bit HBM pseudo-channels and 2 DDR3 channels.
    cfg.nm_timing.bus_width_bits = 64;
    cfg.fm_timing.channels = 2;
    return cfg;
}

void
SystemConfig::validate() const
{
    if (cores == 0)
        fatal("system: at least one core required");
    const policy::SchemeTraits &traits =
        policy::SchemeRegistry::instance().resolve(scheme).traits;
    if (traits.needs_nm && nm_bytes == 0)
        fatal("system: scheme '%s' requires near memory",
              scheme.c_str());
    if (traits.fm_multiple_of_nm) {
        if (nm_bytes == 0 || fm_bytes % nm_bytes != 0)
            fatal("system: FM capacity must be a multiple of NM "
                  "capacity");
    }
    if (instructions_per_core == 0)
        fatal("system: zero instruction budget");
}

namespace {

/** SystemConfig's per-scheme param members, as the registry wants them. */
policy::SchemeConfig
schemeConfigOf(const SystemConfig &cfg)
{
    policy::SchemeConfig sc;
    sc.silc = cfg.silc;
    sc.hma = cfg.hma;
    sc.pom = cfg.pom;
    sc.cameo = cfg.cameo;
    sc.dramcache = cfg.dramcache;
    sc.memcache = cfg.memcache;
    return sc;
}

std::unique_ptr<policy::FlatMemoryPolicy>
makePolicy(const SystemConfig &cfg, policy::PolicyEnv env)
{
    const policy::SchemeInfo &scheme =
        policy::SchemeRegistry::instance().resolve(cfg.scheme);
    return scheme.factory(schemeConfigOf(cfg), env);
}

} // namespace

// ---- MemoryHierarchy ---------------------------------------------------

MemoryHierarchy::MemoryHierarchy(const SystemConfig &cfg,
                                 Translation &translation,
                                 policy::FlatMemoryPolicy &policy,
                                 EventQueue &events)
    : cfg_(cfg),
      translation_(translation),
      policy_(policy),
      events_(events),
      l2_(cfg.l2),
      mshr_(cfg.mshr_entries, cfg.mshr_per_core)
{
    private_.reserve(cfg.cores);
    for (uint32_t c = 0; c < cfg.cores; ++c) {
        cache::CacheParams pd = cfg.l1d;
        pd.name = "l1d" + std::to_string(c);
        private_.emplace_back(pd);
    }
    llc_misses_.assign(cfg.cores, 0);
}

bool
MemoryHierarchy::access(CoreId core, Addr vaddr, Addr pc, bool is_write,
                        std::function<void(Tick)> done, Tick now)
{
    const Addr paddr = translation_.translate(core, vaddr);
    if (warming_) {
        Addr victim = kAddrInvalid;
        Tick latency = l1HitTicks();
        if (!warmL1(core, paddr, is_write, victim)) {
            latency = warmShared(core, paddr, pc, is_write, victim, now)
                ? l2HitTicks()
                : 1;
        }
        if (done)
            done(now + latency);
        return true;
    }

    cache::Cache &l1 = private_[core].l1d;

    // L1 hit path.
    if (l1.accessIfHit(paddr, is_write)) {
        if (done)
            done(now + l1HitTicks());
        return true;
    }

    // L2 hit path: a hit updates L2 state immediately; a miss leaves the
    // caches untouched so MSHR rejection below has nothing to undo.
    const bool l2_hit = l2_.accessIfHit(paddr, false);
    const Addr block = subblockAddr(paddr);

    if (!l2_hit) {
        // Demand miss at the LLC: needs an MSHR.
        auto fill_cb = [this, core, paddr, is_write,
                        done = std::move(done)](Tick t) mutable {
            // Install into both levels; victims cascade downwards.
            auto o2 = l2_.fill(paddr, false);
            if (o2.writeback)
                policy_.writeback(o2.writeback_addr, core, t);
            auto o1 = private_[core].l1d.fill(paddr, is_write);
            if (o1.writeback) {
                auto ol2 = l2_.fill(o1.writeback_addr, true);
                if (ol2.writeback)
                    policy_.writeback(ol2.writeback_addr, core, t);
            }
            if (done)
                done(t + cfg_.fill_latency);
        };

        const auto alloc = mshr_.allocate(block, core, std::move(fill_cb));
        if (alloc == cache::MshrAllocation::NoCapacity)
            return false;

        ++llc_misses_[core];
        ++llc_misses_total_;

        if (alloc == cache::MshrAllocation::Primary) {
            policy_.demandAccess(
                block, is_write, core, pc,
                [this, block, now](Tick t) {
                    miss_latency_sum_ += static_cast<double>(t - now);
                    ++misses_completed_;
                    mshr_.complete(block, t);
                },
                now);
        }
        // Record the misses in statistics; the functional install is
        // deferred to the fill callback.
        l1.noteMiss();
        l2_.noteMiss();
        return true;
    }

    // L2 hit (already counted above): fill L1, cascade any dirty L1
    // victim into L2.
    auto o1 = l1.access(paddr, is_write);
    if (o1.writeback) {
        auto ol2 = l2_.fill(o1.writeback_addr, true);
        if (ol2.writeback)
            policy_.writeback(ol2.writeback_addr, core, now);
    }
    if (done)
        done(now + l2HitTicks());
    return true;
}

bool
MemoryHierarchy::warmShared(CoreId core, Addr paddr, Addr pc, bool is_write,
                            Addr victim, Tick now)
{
    // Functional warming: the policy's metadata state machine runs in
    // full (it is in functional mode, so nothing reaches the DRAM
    // devices and the demand completes synchronously), the caches fill
    // immediately, and the MSHR file is bypassed entirely.  Skipping
    // MSHR coalescing is the standard functional-warming approximation:
    // with no outstanding misses every access resolves against
    // up-to-date cache and metadata state.
    const bool l2_hit = l2_.accessIfHit(paddr, false);
    if (!l2_hit) {
        ++llc_misses_[core];
        ++llc_misses_total_;
        l2_.noteMiss();
        policy_.demandAccess(subblockAddr(paddr), is_write, core, pc,
                             nullptr, now);
        const auto o2 = l2_.fill(paddr, false);
        if (o2.writeback)
            policy_.writeback(o2.writeback_addr, core, now);
    }
    // The L1d fill (warmL1) happened first, but it touches no shared
    // state: the victim it evicted lands in L2 here, after the demand
    // fill, exactly where the detailed fill cascade puts it.
    if (victim != kAddrInvalid) {
        const auto ol2 = l2_.fill(victim, true);
        if (ol2.writeback)
            policy_.writeback(ol2.writeback_addr, core, now);
    }
    return l2_hit;
}

void
MemoryHierarchy::snapshot(BlobWriter &w) const
{
    w.putU32(static_cast<uint32_t>(private_.size()));
    for (const CorePrivate &p : private_)
        p.l1d.snapshot(w);
    l2_.snapshot(w);
    for (uint64_t m : llc_misses_)
        w.putU64(m);
    w.putU64(llc_misses_total_);
    w.putF64(miss_latency_sum_);
    w.putU64(misses_completed_);
}

void
MemoryHierarchy::restore(BlobReader &r)
{
    const uint32_t cores = r.getU32();
    if (cores != private_.size())
        fatal("hierarchy checkpoint core count %u != configured %zu",
              cores, private_.size());
    for (CorePrivate &p : private_)
        p.l1d.restore(r);
    l2_.restore(r);
    for (uint64_t &m : llc_misses_)
        m = r.getU64();
    llc_misses_total_ = r.getU64();
    miss_latency_sum_ = r.getF64();
    misses_completed_ = r.getU64();
}

// ---- System ------------------------------------------------------------

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg))
{
    cfg_.validate();

    const policy::SchemeInfo &scheme =
        policy::SchemeRegistry::instance().resolve(cfg_.scheme);
    if (scheme.traits.needs_nm) {
        nm_ = std::make_unique<dram::DramSystem>(cfg_.nm_timing,
                                                 cfg_.nm_bytes, events_);
    }
    fm_ = std::make_unique<dram::DramSystem>(cfg_.fm_timing,
                                             cfg_.fm_bytes, events_);

    policy::PolicyEnv env;
    env.nm = nm_.get();
    env.fm = fm_.get();
    env.events = &events_;
    policy_ = makePolicy(cfg_, env);

    translation_ = std::make_unique<Translation>(
        policy_->flatSpaceBytes(), cfg_.seed);

    hierarchy_ = std::make_unique<MemoryHierarchy>(cfg_, *translation_,
                                                   *policy_, events_);

    cpu::CoreParams core_params = cfg_.core_params;
    core_params.instruction_budget = cfg_.instructions_per_core;

    for (uint32_t c = 0; c < cfg_.cores; ++c) {
        if (!cfg_.trace_file.empty()) {
            traces_.push_back(std::make_unique<trace::FileTraceReader>(
                cfg_.trace_file));
        } else {
            const trace::WorkloadProfile &profile =
                trace::findProfile(cfg_.workload);
            traces_.push_back(
                std::make_unique<trace::SyntheticGenerator>(
                    profile, cfg_.seed * 7919 + c * 104729 + 13));
        }
        cores_.push_back(std::make_unique<cpu::Core>(
            c, core_params, *traces_.back(), *hierarchy_));
    }

    if (cfg_.telemetry.enabled)
        attachTelemetry();

    if (cfg_.check) {
        // Tier 1: the scheme-agnostic shadow-data invariant checker,
        // valid for every organization.
        check::ShadowChecker::Options sopts;
        sopts.panic_on_divergence = true;
        shadow_ = std::make_unique<check::ShadowChecker>(*policy_, sopts);
        policy_->setAccessObserver(shadow_.get());
        // Tier 2: the per-scheme metadata-lockstep oracle, where the
        // scheme has a reference model.
        if (scheme.traits.has_reference_oracle) {
            auto &silc_policy =
                static_cast<core::SilcFmPolicy &>(*policy_);
            check::DifferentialChecker::Options opts;
            opts.panic_on_divergence = true;
            checker_ = std::make_unique<check::DifferentialChecker>(
                silc_policy, opts);
            silc_policy.setObserver(checker_.get());
        }
    }
}

void
System::attachTelemetry()
{
    recorder_ = std::make_unique<telemetry::Recorder>(
        cfg_.telemetry, cfg_.workload + "/" + cfg_.scheme);
    telemetry::Sampler &s = recorder_->sampler();

    policy_->registerTelemetry(s);
    if (nm_)
        nm_->registerTelemetry(s, "nm");
    fm_->registerTelemetry(s, "fm");

    // Cores aggregate: the figures of interest (warm-up, phase shifts)
    // show up identically on every core of a rate-mode run, so one
    // averaged series keeps the probe list readable.
    const double inv_cores = 1.0 / static_cast<double>(cfg_.cores);
    s.addRate("cpu.ipc", [this, inv_cores] {
        double retired = 0.0;
        for (const auto &core : cores_)
            retired += static_cast<double>(core->retired());
        return retired * inv_cores;
    });
    s.addGauge("cpu.robOccupancy", [this, inv_cores] {
        double occ = 0.0;
        for (const auto &core : cores_)
            occ += static_cast<double>(core->robOccupancy());
        return occ * inv_cores;
    });
    s.addRate("cpu.stallFraction", [this, inv_cores] {
        double stalls = 0.0;
        for (const auto &core : cores_)
            stalls += static_cast<double>(core->stallCycles());
        return stalls * inv_cores;
    });

    recorder_->start(events_);
}

System::~System() = default;

SimResult
System::run()
{
    return collectResult(runToBudget());
}

bool
System::runToBudget()
{
    if (functional_)
        return runFunctional();

    // Resumable: cycle_ is a member, so after extending the per-core
    // budgets a second call re-enters at the pause cycle.  Re-running
    // that cycle is idempotent — its events already fired (runDue pops
    // nothing), the ROB is empty so the retire loop is a no-op, and the
    // device ticks see unchanged queues — so dispatch resumes exactly
    // where the previous budget ended.
    bool all_done = false;
    while (cycle_ < cfg_.max_ticks) {
        const Tick cycle = cycle_;
        events_.runDue(cycle);
        all_done = true;
        for (auto &core : cores_) {
            core->tick(cycle);
            all_done &= core->done();
        }
        if (nm_)
            nm_->tick(cycle);
        fm_->tick(cycle);
        policy_->tick(cycle);
        if (all_done)
            break;
        cycle_ = cycle + 1;

        // Fast-forward: when every live core is in the counters-only
        // stall state, nothing can happen before the earliest wakeup
        // among the cores' stall horizons, pending events (completions,
        // telemetry epochs), the DRAM scan registers and the policy's
        // epoch hook — each skipped cycle would have been a strict
        // no-op apart from the stall counters, which are bulk-added.
        Tick wake = kTickNever;
        bool skippable = true;
        for (const auto &core : cores_) {
            if (core->done())
                continue;
            const Tick su = core->stallUntil();
            if (su <= cycle_) {
                skippable = false;
                break;
            }
            wake = std::min(wake, su);
        }
        if (!skippable)
            continue;
        wake = std::min(wake, events_.nextEventTick());
        if (nm_)
            wake = std::min(wake, nm_->nextWakeTick());
        wake = std::min(wake, fm_->nextWakeTick());
        wake = std::min(wake, policy_->nextWakeTick());
        wake = std::min(wake, cfg_.max_ticks);
        if (wake <= cycle_)
            continue;
        const uint64_t skipped = wake - cycle_;
        for (auto &core : cores_) {
            if (!core->done())
                core->addStalledCycles(skipped);
        }
        cycle_ = wake;
    }

    return all_done;
}

void
System::setFunctionalMode(bool on)
{
    policy_->setFunctionalMode(on);
    hierarchy_->setWarming(on);
    functional_ = on;
}

uint64_t
System::accessesChecked() const
{
    uint64_t n = 0;
    if (shadow_)
        n += shadow_->accessesChecked();
    if (checker_)
        n += checker_->accessesChecked();
    return n;
}

void
System::setPerCoreBudget(uint64_t instructions)
{
    cfg_.instructions_per_core = instructions;
    for (auto &core : cores_)
        core->setInstructionBudget(instructions);
}

void
System::snapshotState(BlobWriter &w) const
{
    // Only legal at a quiesced functional-mode pause point: nothing in
    // flight, so timing state need not (and must not) be captured.
    silc_assert(hierarchy_->mshrs().size() == 0);
    silc_assert(fm_->idle());
    silc_assert(!nm_ || nm_->idle());

    w.section("SILC");
    // Version 3: the hierarchy carries no L1i (it is not modeled).
    // Version 2 serialized NM frame metadata sparsely (materialized
    // frames only); version-1 blobs carried the dense per-frame dump.
    w.putU32(3); // checkpoint format version
    w.putStr(policy_->name());
    w.putU32(cfg_.cores);

    w.section("TRNS");
    translation_->snapshot(w);

    w.section("HIER");
    hierarchy_->snapshot(w);

    w.section("POLI");
    policy_->snapshotState(w);

    for (const auto &t : traces_) {
        w.section("TRCE");
        t->snapshot(w);
    }
}

void
System::restoreState(BlobReader &r)
{
    r.expect("SILC");
    const uint32_t version = r.getU32();
    if (version != 3)
        fatal("checkpoint format version %u unsupported (expected 3)",
              version);
    const std::string pname = r.getStr();
    if (pname != policy_->name())
        fatal("checkpoint policy '%s' does not match system policy '%s'",
              pname.c_str(), policy_->name());
    const uint32_t cores = r.getU32();
    if (cores != cfg_.cores)
        fatal("checkpoint core count %u does not match config (%u)",
              cores, cfg_.cores);

    r.expect("TRNS");
    translation_->restore(r);

    r.expect("HIER");
    hierarchy_->restore(r);

    r.expect("POLI");
    policy_->restoreState(r);

    for (auto &t : traces_) {
        r.expect("TRCE");
        t->restore(r);
    }
    r.done();

    // The data layout reverted under the shadow oracle's feet; rebuild
    // its map from the restored locate() state.
    if (shadow_)
        shadow_->reseed();
}

SimResult
System::collectResult(bool all_done)
{
    SimResult r;
    r.scheme = cfg_.scheme;
    r.workload = cfg_.workload;
    r.cores = cfg_.cores;
    r.instructions =
        cfg_.instructions_per_core * static_cast<uint64_t>(cfg_.cores);
    r.hit_tick_limit = !all_done;

    Tick finish = 0;
    for (auto &core : cores_)
        finish = std::max(finish, core->finishTick());
    r.ticks = all_done ? finish : cfg_.max_ticks;
    if (r.ticks == 0)
        r.ticks = 1;

    if (!all_done) {
        warn("run %s/%s hit the tick limit (%" PRIu64 ")",
             r.scheme.c_str(), r.workload.c_str(), cfg_.max_ticks);
    }

    r.ipc = static_cast<double>(r.instructions) /
        static_cast<double>(r.ticks) / cfg_.cores;
    r.llc_misses = hierarchy_->llcMisses();
    r.mpki = 1000.0 * static_cast<double>(r.llc_misses) /
        static_cast<double>(r.instructions);
    r.footprint_pages = translation_->pagesAllocated();
    r.avg_miss_latency = hierarchy_->avgMissLatency();
    r.access_rate = policy_->accessRate();

    const auto demand = static_cast<size_t>(dram::TrafficClass::Demand);
    const auto migr = static_cast<size_t>(dram::TrafficClass::Migration);
    const auto meta = static_cast<size_t>(dram::TrafficClass::Metadata);
    const auto &ft = fm_->traffic();
    r.fm_demand_bytes = ft.read[demand] + ft.write[demand];
    r.fm_total_bytes = ft.total();
    r.migration_bytes = ft.read[migr] + ft.write[migr];
    r.metadata_bytes = ft.read[meta] + ft.write[meta];
    if (nm_) {
        const auto &nt = nm_->traffic();
        r.nm_demand_bytes = nt.read[demand] + nt.write[demand];
        r.nm_total_bytes = nt.total();
        r.migration_bytes += nt.read[migr] + nt.write[migr];
        r.metadata_bytes += nt.read[meta] + nt.write[meta];
    }

    const uint64_t fm_rb = fm_->rowHits() + fm_->rowMisses();
    r.fm_row_hit_rate = fm_rb == 0
        ? 0.0
        : static_cast<double>(fm_->rowHits()) / fm_rb;
    r.fm_bus_utilization = fm_->busUtilization(r.ticks);
    r.fm_avg_read_queue_ticks = fm_->avgReadQueueDelay();
    if (nm_) {
        const uint64_t nm_rb = nm_->rowHits() + nm_->rowMisses();
        r.nm_row_hit_rate = nm_rb == 0
            ? 0.0
            : static_cast<double>(nm_->rowHits()) / nm_rb;
        r.nm_bus_utilization = nm_->busUtilization(r.ticks);
        r.nm_avg_read_queue_ticks = nm_->avgReadQueueDelay();
    }

    const double cpu_freq_hz = 3.2e9;
    r.energy_fm_j = fm_->energyJoules(r.ticks, cpu_freq_hz);
    r.energy_nm_j =
        nm_ ? nm_->energyJoules(r.ticks, cpu_freq_hz) : 0.0;
    r.energy_total_j = r.energy_fm_j + r.energy_nm_j;
    r.edp = r.energy_total_j * r.seconds(cpu_freq_hz);

    if (recorder_) {
        recorder_->finish(r.ticks);
        r.telemetry = recorder_->series();
    }

    // One last deep sweep of the complete oracle state; any violation
    // panics (both checkers run in panic_on_divergence mode).
    if (shadow_)
        shadow_->verifyFullState();
    if (checker_)
        checker_->verifyFullState();
    return r;
}


void
System::dumpStats(std::ostream &os) const
{
    const std::string prefix = std::string(policy_->name()) + ".";
    auto line = [&](const std::string &name, const std::string &value,
                    const char *desc) {
        os << std::left << std::setw(44) << (prefix + name) << " "
           << std::setw(16) << value << " # " << desc << "\n";
    };
    // Counters print every digit; averages keep the stream's default
    // six significant digits.
    auto add_scalar = [&](const std::string &name, uint64_t value,
                          const char *desc) {
        line(name, std::to_string(value), desc);
    };
    auto add_avg = [&](const std::string &name, double value,
                       const char *desc) {
        std::ostringstream text;
        text << value;
        line(name, text.str(), desc);
    };

    for (uint32_t c = 0; c < cfg_.cores; ++c) {
        const std::string pfx = "core" + std::to_string(c) + ".";
        const cpu::Core &core = *cores_[c];
        add_scalar(pfx + "retired", core.retired(),
                   "instructions retired");
        add_scalar(pfx + "loads", core.loads(), "loads issued");
        add_scalar(pfx + "stores", core.stores(), "stores issued");
        add_scalar(pfx + "robFullCycles", core.robFullCycles(),
                   "dispatch cycles blocked on a full ROB");
        add_scalar(pfx + "memStallCycles", core.memStallCycles(),
                   "dispatch cycles blocked on memory backpressure");
        add_scalar(pfx + "finishTick", core.finishTick(),
                   "tick the budget retired");
        const cache::Cache &l1 = hierarchy_->l1d(c);
        add_scalar(pfx + "l1d.hits", l1.hits(), "L1D hits");
        add_scalar(pfx + "l1d.misses", l1.misses(), "L1D misses");
    }

    add_scalar("l2.hits", hierarchy_->l2().hits(), "shared L2 hits");
    add_scalar("l2.misses", hierarchy_->l2().misses(),
               "shared L2 misses");
    add_scalar("l2.writebacks", hierarchy_->l2().writebacks(),
               "dirty L2 evictions");
    add_scalar("mshr.coalesced", hierarchy_->mshrs().coalesced(),
               "misses merged into outstanding entries");
    add_scalar("mshr.rejections", hierarchy_->mshrs().rejections(),
               "allocations rejected (backpressure)");
    add_scalar("llc.misses", hierarchy_->llcMisses(),
               "demand misses past the LLC");
    add_avg("llc.avgMissLatency", hierarchy_->avgMissLatency(),
            "mean ticks from miss to fill");

    auto add_dram = [&](const char *pfx, const dram::DramSystem &dev) {
        const std::string p(pfx);
        add_scalar(p + ".reads", dev.readsServed(), "reads serviced");
        add_scalar(p + ".writes", dev.writesServed(),
                   "writes serviced");
        add_scalar(p + ".rowHits", dev.rowHits(), "row buffer hits");
        add_scalar(p + ".rowMisses", dev.rowMisses(),
                   "row buffer misses");
        add_scalar(p + ".activations", dev.activations(),
                   "row activations");
        add_scalar(p + ".bytes", dev.traffic().total(),
                   "total bytes transferred");
        add_scalar(p + ".demandBytes", dev.demandBytes(),
                   "demand-class bytes");
        add_avg(p + ".avgReadQueueDelay", dev.avgReadQueueDelay(),
                "mean read queueing delay (ticks)");
    };
    if (nm_)
        add_dram("nm", *nm_);
    add_dram("fm", *fm_);

    add_scalar("policy.nmServiced", policy_->nmServiced(),
               "demand requests serviced by NM");
    add_scalar("policy.fmServiced", policy_->fmServiced(),
               "demand requests serviced by FM");
    add_scalar("policy.migrationOps", policy_->migrationOps(),
               "subblock migration operations");
    add_avg("policy.accessRate", policy_->accessRate(),
            "Equation 1 access rate");
}

} // namespace sim
} // namespace silc
