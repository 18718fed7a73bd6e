/**
 * @file
 * Extending the library: implement your own flat-memory policy against
 * the FlatMemoryPolicy interface and race it against the built-ins.
 *
 * The example policy is "FirstTouchPin": the first NM-frames-worth of
 * distinct 2KB pages that miss the LLC are permanently pinned into NM
 * (one bulk 2KB migration each); everything else stays in FM.  It is a
 * deliberately simple contrast to SILC-FM's adaptive subblocking.
 *
 *     SILC_WORKLOAD=omnet ./example_custom_policy
 */

#include <cstdio>
#include <unordered_map>

#include "policy/policy.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

using namespace silc;
using policy::DemandCallback;
using policy::FlatMemoryPolicy;
using policy::Location;
using policy::PolicyEnv;

namespace {

/** Pin the first distinct pages that miss into NM, forever. */
class FirstTouchPinPolicy : public FlatMemoryPolicy
{
  public:
    explicit FirstTouchPinPolicy(PolicyEnv env)
        : FlatMemoryPolicy(env),
          nm_pages_(env.nm->capacity() / kLargeBlockSize)
    {
    }

    const char *name() const override { return "firsttouch"; }

    uint64_t
    flatSpaceBytes() const override
    {
        return env_.nm->capacity() + env_.fm->capacity();
    }

    Location
    locate(Addr paddr) const override
    {
        const Addr sub = subblockAddr(paddr);
        const uint64_t page = sub >> kLargeBlockBits;
        const Addr offset = sub & (kLargeBlockSize - 1);

        // NM-native pages that were displaced by a pin live at the
        // pinned page's FM home; pinned FM pages live in the frame they
        // claimed.
        auto pin = pinned_.find(page);
        if (pin != pinned_.end())
            return Location{true,
                            pin->second * kLargeBlockSize + offset};
        if (page < nm_pages_) {
            auto displaced = displaced_.find(page);
            if (displaced != displaced_.end()) {
                return Location{false, (displaced->second - nm_pages_) *
                                           kLargeBlockSize +
                                       offset};
            }
            return Location{true, page * kLargeBlockSize + offset};
        }
        return Location{false,
                        (page - nm_pages_) * kLargeBlockSize + offset};
    }

    void
    demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                 DemandCallback done, Tick now) override
    {
        (void)is_write;
        (void)pc;
        const uint64_t page = paddr >> kLargeBlockBits;

        if (page >= nm_pages_ && next_frame_ < nm_pages_ &&
            pinned_.find(page) == pinned_.end()) {
            pinPage(page, core, now);
        }

        const Location loc = locate(paddr);
        recordService(loc.in_nm);
        issueRead(deviceFor(loc), loc.device_addr,
                  static_cast<uint32_t>(kSubblockSize),
                  dram::TrafficClass::Demand, core, std::move(done),
                  now);
    }

  private:
    void
    pinPage(uint64_t page, CoreId core, Tick now)
    {
        const uint64_t frame = next_frame_++;
        // 2KB swap between the claimed frame and the page's FM home.
        for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
            const Addr off = static_cast<Addr>(s) * kSubblockSize;
            const Location nm_loc{true, frame * kLargeBlockSize + off};
            const Location fm_loc{
                false, (page - nm_pages_) * kLargeBlockSize + off};
            moveSubblock(fm_loc, nm_loc, core, now);
            moveSubblock(nm_loc, fm_loc, core, now);
        }
        pinned_[page] = frame;
        displaced_[frame] = page;
    }

    uint64_t nm_pages_;
    uint64_t next_frame_ = 0;
    /** pinned FM page -> NM frame */
    std::unordered_map<uint64_t, uint64_t> pinned_;
    /** NM frame (== native page id) -> pinned page living there */
    std::unordered_map<uint64_t, uint64_t> displaced_;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::checkArguments(argc, argv, false);
    sim::ExperimentOptions opts = sim::ExperimentOptions::fromEnv();
    const std::string workload = opts.workload.value_or("omnet");
    sim::ParallelRunner runner(opts);

    std::printf("== custom policy vs built-ins on %s ==\n\n",
                workload.c_str());

    // Built-ins through the standard runner.
    const Tick base = runner.baselineTicks(workload);
    for (const char *kind : {"rand", "cam", "silcfm"}) {
        const sim::SimResult r = runner.submit(workload, kind).get();
        std::printf("%-11s speedup=%.3f access_rate=%.3f\n",
                    r.scheme.c_str(), runner.speedup(r), r.access_rate);
    }

    // The custom policy, assembled by hand around the same substrate.
    {
        EventQueue events;
        sim::SystemConfig cfg =
            sim::makeConfig(workload, "rand", opts);
        dram::DramSystem nm(cfg.nm_timing, cfg.nm_bytes, events);
        dram::DramSystem fm(cfg.fm_timing, cfg.fm_bytes, events);
        PolicyEnv env{&nm, &fm, &events};
        FirstTouchPinPolicy custom(env);

        // Drive the policy directly with the workload's LLC-miss-like
        // stream (a light-weight stand-in for the full system loop).
        trace::SyntheticGenerator gen(trace::findProfile(workload),
                                      opts.seed);
        Tick now = 0;
        uint64_t outstanding = 0;
        for (uint64_t i = 0; i < 200'000; ++i) {
            trace::TraceInstruction ins = gen.next();
            if (!ins.is_mem)
                continue;
            const Addr paddr =
                (ins.vaddr >> kSubblockBits) * kSubblockSize %
                custom.flatSpaceBytes();
            ++outstanding;
            custom.demandAccess(subblockAddr(paddr), ins.is_write, 0,
                                ins.pc,
                                [&](Tick) { --outstanding; }, now);
            now += 20;
            nm.tick(now);
            fm.tick(now);
            events.runDue(now);
        }
        while (outstanding > 0 && now < 1'000'000'000) {
            ++now;
            nm.tick(now);
            fm.tick(now);
            events.runDue(now);
        }
        std::printf("%-11s access_rate=%.3f (driven standalone; "
                    "baseline ticks for context: %llu)\n",
                    custom.name(), custom.accessRate(),
                    static_cast<unsigned long long>(base));
    }

    std::printf("\nA policy only needs demandAccess(), locate() and "
                "flatSpaceBytes(); the base class provides DRAM issue "
                "helpers, swap plumbing, and access-rate accounting.\n");
    return 0;
}
