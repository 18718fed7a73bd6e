#include "sim/experiment.hh"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "policy/registry.hh"
#include "trace/profiles.hh"

namespace silc {
namespace sim {

namespace {

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

} // namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions o;
    // Validated parsing throughout (common/env.hh): zero, signs, hex,
    // size suffixes, trailing junk and over-cap values are fatal, so a
    // typo fails at startup instead of running a quietly different
    // experiment (0 cores hang, SILC_SEED=1k would run seed 1024).
    o.cores = static_cast<uint32_t>(
        envPositiveCount("SILC_CORES", o.cores, 1024));
    o.instructions_per_core = envPositiveCount(
        "SILC_INSTR", o.instructions_per_core, 1'000'000'000'000ULL);
    o.nm_bytes = envMebibytes("SILC_NM_MIB", o.nm_bytes);
    o.fm_bytes = envMebibytes("SILC_FM_MIB", o.fm_bytes);
    o.seed = envPositiveCount("SILC_SEED", o.seed);
    if (const char *w = std::getenv("SILC_WORKLOAD")) {
        const std::vector<std::string> names = trace::profileNames();
        if (std::find(names.begin(), names.end(), w) == names.end())
            fatal("SILC_WORKLOAD: unknown workload '%s' (Table III "
                  "workloads: %s)", w, joined(names).c_str());
        o.workload = w;
    }
    if (const char *s = std::getenv("SILC_SCHEME")) {
        // Validate eagerly so a typo fails at startup, not mid-bench.
        const auto &reg = policy::SchemeRegistry::instance();
        if (!reg.known(s))
            fatal("SILC_SCHEME: unknown scheme '%s' (known schemes: %s)",
                  s, joined(reg.names()).c_str());
        o.scheme = s;
    }
    o.telemetry = envFlag("SILC_TELEMETRY", o.telemetry);
    o.epoch_ticks = envPositiveCount("SILC_EPOCH_TICKS", o.epoch_ticks);
    o.check = envFlag("SILC_CHECK", o.check);
    // Knobs of deleted subsystems fail loudly for any value rather than
    // let a stale script believe it still sets one.
    const char *const windowed_loop =
        "the intra-simulation windowed loop; results never depended on "
        "it, so unset it";
    const char *const tenant_layer =
        "the multi-tenant trace layer; results depended on it, so "
        "ignoring it would run a different experiment.  Unset it and "
        "grow the footprint with SILC_CORES instead";
    const char *const early_stopping =
        "confidence-interval early stopping, which measured only a "
        "prefix of the run; every checkpoint is replayed now, so unset "
        "it and set fewer windows with SILC_SAMPLE_PERIOD instead";
    const std::pair<const char *, const char *> removed[] = {
        {"SILC_SIM_THREADS", windowed_loop},
        {"SILC_CORE_LANES", windowed_loop},
        {"SILC_SPEC_HORIZON", windowed_loop},
        {"SILC_TENANTS", tenant_layer},
        {"SILC_TENANT_CHURN", tenant_layer},
        {"SILC_SAMPLE_MIN_WINDOWS", early_stopping},
        {"SILC_SAMPLE_CI_TARGET", early_stopping},
    };
    for (const auto &[knob, removed_with] : removed) {
        if (std::getenv(knob) != nullptr)
            fatal("%s was removed with %s", knob, removed_with);
    }
    return o;
}

SystemConfig
makeConfig(const std::string &workload, const std::string &scheme,
           const ExperimentOptions &opts)
{
    SystemConfig cfg = SystemConfig::defaults();
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.cores = opts.cores;
    cfg.instructions_per_core = opts.instructions_per_core;
    cfg.nm_bytes = opts.nm_bytes;
    cfg.fm_bytes = opts.fm_bytes;
    cfg.seed = opts.seed;
    // Scaled runs see far fewer than the paper's 1M accesses between
    // agings; keep the aging cadence proportional to run length.
    cfg.silc.aging_interval =
        std::max<uint64_t>(20'000, opts.instructions_per_core / 8);
    // The paper's threshold of 50 assumes 1B-instruction slices; scaled
    // runs see proportionally fewer per-page accesses per aging window.
    cfg.silc.hot_threshold = 12;
    // HMA's epoch must fit several times into a scaled run the same way
    // hundreds-of-ms epochs fit into the paper's full executions.
    cfg.hma.epoch_ticks =
        std::max<Tick>(100'000, opts.instructions_per_core);
    cfg.hma.hot_threshold = 16;
    cfg.hma.max_migrations_per_epoch = 256;
    // PoM's competing-counter threshold, scaled like the others.
    cfg.pom.migration_threshold = 48;
    cfg.telemetry.enabled = opts.telemetry;
    cfg.telemetry.epoch_ticks = opts.epoch_ticks;
    // Every scheme has at least the shadow-data tier of the oracle, so
    // SILC_CHECK=1 applies across whole multi-scheme bench matrices.
    cfg.check = opts.check;
    return cfg;
}

std::string
u64str(uint64_t v)
{
    return std::to_string(v);
}

bool
checkArguments(int argc, char *const argv[], bool takes_json,
               const char *flag)
{
    bool given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (flag != nullptr && arg == flag) {
            given = true;
        } else if (takes_json && arg == "--json") {
            if (++i >= argc)
                fatal("--json requires a path argument");
        } else if (!(takes_json && arg.rfind("--json=", 0) == 0)) {
            fatal("unknown argument '%s' (runs are picked with the "
                  "SILC_* environment knobs, see sim/experiment.hh)",
                  argv[i]);
        }
    }
    return given;
}

} // namespace sim
} // namespace silc
