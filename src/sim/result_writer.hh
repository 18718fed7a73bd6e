/**
 * @file
 * Structured result export: serializes a sequence of SimResults (plus
 * their embedded telemetry time series) into one machine-readable JSON
 * document with a stable, versioned schema, so the figure benches can
 * finally be diffed and trended across commits instead of scraping
 * printf tables.
 *
 * Schema (version "silc.results.v1"):
 *
 *   {
 *     "schema": "silc.results.v1",
 *     "options": { cores, instructions_per_core, nm_bytes, fm_bytes,
 *                  seed, epoch_ticks },
 *     "runs": [
 *       {
 *         <every scalar SimResult field, same names as the struct>,
 *         "seconds": ..., "nm_demand_fraction": ...,
 *         "sampling": {             // only on sampled runs
 *           "period", "window", "warmup", "checkpoints", "windows",
 *           "early_stopped": 0, "warm_instructions",
 *           "metrics": [ {"name", "mean", "ci_half", "n"}, ... ]
 *         },
 *         "telemetry": {            // only when recorded
 *           "run": "mcf/silcfm",
 *           "epoch_ticks": 100000,
 *           "probes": ["policy.hitRate", ...],
 *           "epochs": [ {"epoch":0,"tick":...,"elapsed":...,
 *                        "values":[...]}, ... ]
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * "early_stopped" is always 0: sampled runs replay every checkpoint
 * (sample/sampling.hh).  The key stays so that sampled documents, the
 * sampled goldens and digests taken over them keep their bytes.
 *
 * Runs appear in add() order; sim::Grid (sim/grid.hh) adds them in
 * submission order, which makes the file byte-identical across
 * SILC_THREADS values (doubles render via shortest-round-trip
 * formatting, see telemetry/json.hh).
 */

#ifndef SILC_SIM_RESULT_WRITER_HH
#define SILC_SIM_RESULT_WRITER_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/metrics.hh"

namespace silc {
namespace sim {

/** Schema identifier written into every document. */
inline constexpr const char *kResultSchemaVersion = "silc.results.v1";

/**
 * Resolve the shared JSON-output knob of the bench binaries: a
 * "--json <path>" / "--json=<path>" argument wins over the SILC_JSON
 * environment variable; empty means disabled.
 */
std::string jsonOutputPath(int argc, char *const argv[]);

/** One run as a JSON object (no trailing newline). */
void writeResultJson(std::ostream &os, const SimResult &r);

class ResultWriter
{
  public:
    /** @param path output file; @p opts recorded in the header. */
    ResultWriter(std::string path, ExperimentOptions opts);

    /** Append one run; call in the order runs should appear. */
    void add(const SimResult &r);

    size_t runs() const { return results_.size(); }
    const std::string &path() const { return path_; }

    /** Serialize the document to @p os. */
    void serialize(std::ostream &os) const;

    /** Write the document to path(); fatal() when the open fails. */
    void write() const;

  private:
    std::string path_;
    ExperimentOptions opts_;
    std::vector<SimResult> results_;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_RESULT_WRITER_HH
