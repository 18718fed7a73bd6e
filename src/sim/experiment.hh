/**
 * @file
 * Experiment setup shared by the bench and example binaries: picks the
 * run from the environment, builds configs for (workload, scheme)
 * pairs and checks the command line.  sim::Grid (sim/grid.hh) runs the
 * figure benches' configs, and ParallelRunner (sim/parallel.hh) the
 * examples'; both run one no-NM baseline per workload, so speedups
 * share a denominator.
 *
 * Run-selection and scale knobs (environment variables, all optional).
 * Defaults quote the ExperimentOptions initializers below — keep them in
 * sync:
 *   SILC_WORKLOAD - Table III workload of the binaries that run one
 *                  workload: the examples, bypass_sweep, capacity_smoke
 *                  and sampling_sweep (default: each binary's own, mcf
 *                  for most).  Unknown or empty values are a fatal
 *                  error listing the Table III names.
 *   SILC_SCHEME  - memory-organization scheme of the binaries that run
 *                  one scheme: example_quickstart,
 *                  example_capacity_planning, capacity_smoke and
 *                  sampling_sweep (registry name or alias, e.g. silcfm,
 *                  dramcache; see policy/registry.hh).  Validated
 *                  against the registry: unknown or empty values are a
 *                  fatal error listing the registered schemes.
 *   SILC_CORES   - cores per run          (default 8, max 1024)
 *   SILC_INSTR   - instructions per core  (default 2400000, max 1e12)
 *   SILC_NM_MIB  - NM capacity in MiB     (default 4, max 1048576)
 *   SILC_FM_MIB  - FM capacity in MiB     (default 16, max 1048576)
 *                  The four knobs above reject 0, non-numeric values,
 *                  trailing junk, and anything over their cap with a
 *                  fatal error naming the variable (common/env.hh).
 *   SILC_SEED    - RNG seed               (default 1; validated like
 *                  the four knobs above)
 *   SILC_THREADS - simulation worker threads used by the benches'
 *                  ParallelRunner (sim/parallel.hh); default is
 *                  hardware_concurrency, 1 runs everything
 *                  sequentially.  Tables are byte-identical across
 *                  thread counts.  Rejects 0 and non-numeric values
 *                  with a fatal error.
 *
 * Each simulation runs on one thread.  The knobs of removed subsystems
 * are a fatal error when set (see fromEnv()).
 *
 * Telemetry / export knobs (see src/telemetry/ and sim/result_writer.hh):
 *   SILC_JSON        - write every run's SimResult to this path as one
 *                      JSON document; the benches also accept
 *                      --json <path>, which wins.  The full-detail
 *                      Grid benches (sim/grid.hh) then record each
 *                      run's epoch time series too; capacity_smoke,
 *                      sampling_sweep and --sample grids record series
 *                      only under SILC_TELEMETRY=1, and only on
 *                      full-detail runs.
 *   SILC_EPOCH_TICKS - ticks per telemetry epoch (default 100000;
 *                      a positive count, validated like SILC_CORES)
 *   SILC_TELEMETRY   - set to 1 to record per-run time series even
 *                      without SILC_JSON (only 0 and 1 are accepted)
 *
 * Correctness knobs (see src/check/ and TESTING.md):
 *   SILC_CHECK       - set to 1 to run the untimed two-tier oracle in
 *                      lockstep with every run; the process panics on
 *                      the first violation (only 0 and 1 are accepted).  Every scheme gets the
 *                      scheme-agnostic shadow-data invariant checker
 *                      (check/shadow.hh); SILC-FM runs additionally get
 *                      the metadata-lockstep differential oracle.
 *
 * Sampling knobs (see src/sample/sampling.hh; active in
 * bench/sampling_sweep and under a Grid bench's --sample):
 *   SILC_SAMPLE_PERIOD      - instructions/core between checkpoints
 *                             during functional warming (default 200000)
 *   SILC_SAMPLE_WINDOW      - detailed measurement window per
 *                             checkpoint, instructions/core (default
 *                             5000)
 *   SILC_SAMPLE_WARMUP      - detailed timing re-warm prefix before
 *                             each window, discarded (default 5000)
 * Every checkpoint is replayed; fewer windows means a longer period.
 */

#ifndef SILC_SIM_EXPERIMENT_HH
#define SILC_SIM_EXPERIMENT_HH

#include <optional>
#include <string>

#include "sim/metrics.hh"
#include "sim/system.hh"

namespace silc {
namespace sim {

/** Scale parameters shared by all bench binaries. */
struct ExperimentOptions
{
    uint32_t cores = 8;
    uint64_t instructions_per_core = 2'400'000;
    uint64_t nm_bytes = 4 * 1024 * 1024;
    uint64_t fm_bytes = 16 * 1024 * 1024;
    uint64_t seed = 1;

    /** Workload of single-workload binaries (SILC_WORKLOAD); unset
     *  means the binary's own default. */
    std::optional<std::string> workload;
    /** Scheme of single-scheme binaries (SILC_SCHEME, registry name). */
    std::string scheme = "silcfm";

    /** Record per-run epoch time series (SILC_TELEMETRY / SILC_JSON). */
    bool telemetry = false;
    /** Lockstep two-tier oracle on every run (SILC_CHECK). */
    bool check = false;
    /** Telemetry epoch length in ticks (SILC_EPOCH_TICKS). */
    uint64_t epoch_ticks = 100'000;

    /** Read overrides from the environment. */
    static ExperimentOptions fromEnv();
};

/** Build a full SystemConfig for one run of @p scheme (registry name). */
SystemConfig makeConfig(const std::string &workload,
                        const std::string &scheme,
                        const ExperimentOptions &opts);

/**
 * Decimal rendering of a 64-bit counter for printf("%s") use.  Replaces
 * the non-portable "%llu" + static_cast<unsigned long long> pattern the
 * benches used to repeat (uint64_t is not unsigned long long on every
 * LP64 platform).
 */
std::string u64str(uint64_t v);

/**
 * Check a binary's command line: each argument must be @p flag, or,
 * when @p takes_json, "--json <path>" or "--json=<path>" (read with
 * jsonOutputPath(), sim/result_writer.hh).  Any other argument is
 * fatal and named: the run is picked by the environment knobs above.
 * @return whether @p flag was given.
 */
bool checkArguments(int argc, char *const argv[], bool takes_json,
                    const char *flag = nullptr);

} // namespace sim
} // namespace silc

#endif // SILC_SIM_EXPERIMENT_HH
