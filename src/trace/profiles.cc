#include "trace/profiles.hh"

#include "common/logging.hh"

namespace silc {
namespace trace {

namespace {

WorkloadProfile
base(const char *name, MpkiClass cls, uint64_t footprint_kib)
{
    WorkloadProfile p;
    p.name = name;
    p.mpki_class = cls;
    p.footprint_bytes = footprint_kib * 1024;
    switch (cls) {
      case MpkiClass::Low:
        p.mem_fraction = 0.30;
        p.cache_friendly_fraction = 0.97;
        break;
      case MpkiClass::Medium:
        p.mem_fraction = 0.30;
        p.cache_friendly_fraction = 0.93;
        break;
      case MpkiClass::High:
        p.mem_fraction = 0.35;
        p.cache_friendly_fraction = 0.84;
        break;
    }
    return p;
}

std::vector<WorkloadProfile>
makeProfiles()
{
    std::vector<WorkloadProfile> v;

    // ---- Low MPKI (< 11) ------------------------------------------------
    {
        // bwaves: heavy streaming over a large array; HMA reacts too
        // slowly to its moving window (paper Section V-B).
        WorkloadProfile p = base("bwaves", MpkiClass::Low, 768);
        p.stream_fraction = 0.90;
        p.stream_run_subblocks = 24;
        p.zipf_alpha = 0.30;
        p.page_density = 0.95;
        p.phase_interval = 160'000;
        v.push_back(p);
    }
    {
        // cactusADM: moderate skew; suffers conflict misses under
        // direct-mapped CAMEO.
        WorkloadProfile p = base("cactus", MpkiClass::Low, 768);
        p.stream_fraction = 0.30;
        p.zipf_alpha = 0.95;
        p.page_density = 0.60;
        p.hot_run_subblocks = 2;
        p.phase_interval = 400000;
        v.push_back(p);
    }
    {
        // dealII: balanced mix with decent spatial locality.
        WorkloadProfile p = base("dealii", MpkiClass::Low, 640);
        p.stream_fraction = 0.40;
        p.zipf_alpha = 1.00;
        p.page_density = 0.70;
        p.phase_interval = 350000;
        v.push_back(p);
    }
    {
        // xalancbmk: strongly skewed hot pages that collide in the NM
        // index; locking gives it a large extra win (paper: +14%).
        WorkloadProfile p = base("xalanc", MpkiClass::Low, 768);
        p.stream_fraction = 0.10;
        p.zipf_alpha = 1.15;
        p.page_density = 0.50;
        p.hot_run_subblocks = 2;
        p.phase_interval = 400000;
        v.push_back(p);
    }

    // ---- Medium MPKI (11 - 32) ------------------------------------------
    {
        // gcc: many lukewarm blocks below the hotness threshold;
        // associativity, not locking, is what helps (paper: +36%).
        WorkloadProfile p = base("gcc", MpkiClass::Medium, 768);
        p.stream_fraction = 0.20;
        p.zipf_alpha = 0.75;
        p.page_density = 0.50;
        p.hot_run_subblocks = 3;
        p.phase_interval = 300000;
        v.push_back(p);
    }
    {
        // GemsFDTD: many short-lived hot pages; epoch schemes migrate
        // too late (paper: HMA degrades, CAMEO improves).
        WorkloadProfile p = base("gems", MpkiClass::Medium, 1024);
        p.stream_fraction = 0.45;
        p.zipf_alpha = 0.95;
        p.page_density = 0.60;
        p.phase_interval = 150'000;
        v.push_back(p);
    }
    {
        // leslie3d: streaming stencil with high spatial locality.
        WorkloadProfile p = base("leslie", MpkiClass::Medium, 768);
        p.stream_fraction = 0.80;
        p.stream_run_subblocks = 16;
        p.zipf_alpha = 0.50;
        p.page_density = 0.90;
        p.phase_interval = 450000;
        v.push_back(p);
    }
    {
        // omnetpp: pointer chasing, very low spatial locality; PoM's 2KB
        // migrations waste bandwidth here.
        WorkloadProfile p = base("omnet", MpkiClass::Medium, 640);
        p.stream_fraction = 0.05;
        p.zipf_alpha = 1.00;
        p.page_density = 0.30;
        p.hot_run_subblocks = 1;
        p.phase_interval = 300000;
        v.push_back(p);
    }
    {
        // zeusmp: mixed streaming/hot behaviour.
        WorkloadProfile p = base("zeusmp", MpkiClass::Medium, 768);
        p.stream_fraction = 0.55;
        p.zipf_alpha = 0.85;
        p.page_density = 0.70;
        p.phase_interval = 350000;
        v.push_back(p);
    }

    // ---- High MPKI (> 32) -----------------------------------------------
    {
        // lbm: write-heavy streaming over the full footprint.
        WorkloadProfile p = base("lbm", MpkiClass::High, 1280);
        p.cache_friendly_fraction = 0.80;
        p.stream_fraction = 0.95;
        p.stream_run_subblocks = 28;
        p.zipf_alpha = 0.20;
        p.page_density = 1.00;
        p.write_fraction = 0.45;
        v.push_back(p);
    }
    {
        // libquantum: perfectly sequential sweeps; fully-associative
        // epoch placement (HMA) does well, CAMEO conflicts hurt.
        WorkloadProfile p = base("lib", MpkiClass::High, 1024);
        p.stream_fraction = 0.90;
        p.stream_run_subblocks = 32;
        p.zipf_alpha = 0.30;
        p.page_density = 1.00;
        p.phase_interval = 500000;
        v.push_back(p);
    }
    {
        // mcf: enormous footprint, pointer chasing, low density.
        WorkloadProfile p = base("mcf", MpkiClass::High, 1024);
        p.stream_fraction = 0.05;
        p.zipf_alpha = 0.90;
        p.page_density = 0.12;
        p.hot_run_subblocks = 1;
        p.phase_interval = 400000;
        v.push_back(p);
    }
    {
        // milc: phase changes plus index thrashing; the only workload
        // whose access rate exceeds 0.8, so bypassing pays off.
        WorkloadProfile p = base("milc", MpkiClass::High, 1024);
        p.stream_fraction = 0.35;
        p.zipf_alpha = 1.00;
        p.page_density = 0.50;
        p.phase_interval = 120'000;
        v.push_back(p);
    }
    {
        // soplex: sparse solver; mixed locality.
        WorkloadProfile p = base("soplex", MpkiClass::High, 768);
        p.stream_fraction = 0.45;
        p.zipf_alpha = 0.95;
        p.page_density = 0.60;
        v.push_back(p);
    }

    return v;
}

} // namespace

const std::vector<WorkloadProfile> &
table3Profiles()
{
    static const std::vector<WorkloadProfile> profiles = makeProfiles();
    return profiles;
}

const WorkloadProfile &
findProfile(const std::string &name)
{
    for (const auto &p : table3Profiles()) {
        if (p.name == name)
            return p;
    }
    fatal("unknown workload profile '%s'", name.c_str());
}

std::vector<std::string>
profileNames()
{
    std::vector<std::string> names;
    for (const auto &p : table3Profiles())
        names.push_back(p.name);
    return names;
}

std::vector<std::string>
representativeNames()
{
    return {"bwaves", "xalanc", "gcc", "omnet", "lbm", "mcf", "milc"};
}

} // namespace trace
} // namespace silc
