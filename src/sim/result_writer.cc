#include "sim/result_writer.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/logging.hh"
#include "sample/sampling.hh"
#include "telemetry/json.hh"
#include "telemetry/series.hh"

namespace silc {
namespace sim {

using telemetry::jsonDouble;
using telemetry::jsonString;

std::string
jsonOutputPath(int argc, char *const argv[])
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--json") == 0) {
            if (i + 1 >= argc)
                fatal("--json requires a path argument");
            return argv[i + 1];
        }
        if (std::strncmp(a, "--json=", 7) == 0)
            return a + 7;
    }
    const char *env = std::getenv("SILC_JSON");
    return env == nullptr ? std::string() : std::string(env);
}

namespace {

void
field(std::ostream &os, const char *name, uint64_t v, bool &first)
{
    os << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
}

void
field(std::ostream &os, const char *name, double v, bool &first)
{
    os << (first ? "" : ",") << '"' << name << "\":" << jsonDouble(v);
    first = false;
}

void
field(std::ostream &os, const char *name, const std::string &v,
      bool &first)
{
    os << (first ? "" : ",") << '"' << name << "\":" << jsonString(v);
    first = false;
}

void
writeSeriesJson(std::ostream &os, const telemetry::TimeSeries &ts)
{
    os << "{\"run\":" << jsonString(ts.header.run_id)
       << ",\"epoch_ticks\":" << ts.header.epoch_ticks << ",\"probes\":[";
    for (size_t i = 0; i < ts.header.probes.size(); ++i) {
        if (i)
            os << ',';
        os << jsonString(ts.header.probes[i]);
    }
    os << "],\"epochs\":[";
    for (size_t i = 0; i < ts.epochs.size(); ++i) {
        const auto &e = ts.epochs[i];
        if (i)
            os << ',';
        os << "{\"epoch\":" << e.index << ",\"tick\":" << e.tick
           << ",\"elapsed\":" << e.elapsed << ",\"values\":[";
        for (size_t j = 0; j < e.values.size(); ++j) {
            if (j)
                os << ',';
            os << jsonDouble(e.values[j]);
        }
        os << "]}";
    }
    os << "]}";
}

} // namespace

void
writeResultJson(std::ostream &os, const SimResult &r)
{
    bool first = true;
    os << '{';
    field(os, "scheme", r.scheme, first);
    field(os, "workload", r.workload, first);
    field(os, "cores", static_cast<uint64_t>(r.cores), first);
    field(os, "instructions", r.instructions, first);
    field(os, "ticks", r.ticks, first);
    field(os, "hit_tick_limit", static_cast<uint64_t>(r.hit_tick_limit),
          first);
    field(os, "ipc", r.ipc, first);
    field(os, "llc_misses", r.llc_misses, first);
    field(os, "mpki", r.mpki, first);
    field(os, "footprint_pages", r.footprint_pages, first);
    field(os, "access_rate", r.access_rate, first);
    field(os, "avg_miss_latency", r.avg_miss_latency, first);
    field(os, "nm_demand_bytes", r.nm_demand_bytes, first);
    field(os, "fm_demand_bytes", r.fm_demand_bytes, first);
    field(os, "nm_total_bytes", r.nm_total_bytes, first);
    field(os, "fm_total_bytes", r.fm_total_bytes, first);
    field(os, "migration_bytes", r.migration_bytes, first);
    field(os, "metadata_bytes", r.metadata_bytes, first);
    field(os, "nm_row_hit_rate", r.nm_row_hit_rate, first);
    field(os, "fm_row_hit_rate", r.fm_row_hit_rate, first);
    field(os, "nm_bus_utilization", r.nm_bus_utilization, first);
    field(os, "fm_bus_utilization", r.fm_bus_utilization, first);
    field(os, "nm_avg_read_queue_ticks", r.nm_avg_read_queue_ticks,
          first);
    field(os, "fm_avg_read_queue_ticks", r.fm_avg_read_queue_ticks,
          first);
    field(os, "energy_nm_j", r.energy_nm_j, first);
    field(os, "energy_fm_j", r.energy_fm_j, first);
    field(os, "energy_total_j", r.energy_total_j, first);
    field(os, "edp", r.edp, first);
    field(os, "seconds", r.seconds(), first);
    field(os, "nm_demand_fraction", r.nmDemandFraction(), first);
    if (r.sampling) {
        const auto &sr = *r.sampling;
        os << ",\"sampling\":{\"period\":" << sr.period
           << ",\"window\":" << sr.window << ",\"warmup\":" << sr.warmup
           << ",\"checkpoints\":" << sr.checkpoints
           << ",\"windows\":" << sr.windows
           << ",\"early_stopped\":0" // constant: see result_writer.hh
           << ",\"warm_instructions\":" << sr.warm_instructions
           << ",\"metrics\":[";
        for (size_t i = 0; i < sr.metrics.size(); ++i) {
            const auto &m = sr.metrics[i];
            if (i)
                os << ',';
            os << "{\"name\":" << jsonString(m.name)
               << ",\"mean\":" << jsonDouble(m.mean)
               << ",\"ci_half\":" << jsonDouble(m.ci_half)
               << ",\"n\":" << m.n << '}';
        }
        os << "]}";
    }
    if (r.telemetry) {
        os << ",\"telemetry\":";
        writeSeriesJson(os, *r.telemetry);
    }
    os << '}';
}

ResultWriter::ResultWriter(std::string path, ExperimentOptions opts)
    : path_(std::move(path)), opts_(opts)
{
}

void
ResultWriter::add(const SimResult &r)
{
    results_.push_back(r);
}

void
ResultWriter::serialize(std::ostream &os) const
{
    os << "{\"schema\":" << jsonString(kResultSchemaVersion)
       << ",\"options\":{\"cores\":" << opts_.cores
       << ",\"instructions_per_core\":" << opts_.instructions_per_core
       << ",\"nm_bytes\":" << opts_.nm_bytes
       << ",\"fm_bytes\":" << opts_.fm_bytes << ",\"seed\":" << opts_.seed
       << ",\"epoch_ticks\":" << opts_.epoch_ticks << "},\"runs\":[";
    for (size_t i = 0; i < results_.size(); ++i) {
        if (i)
            os << ',';
        os << "\n";
        writeResultJson(os, results_[i]);
    }
    os << "\n]}\n";
}

void
ResultWriter::write() const
{
    std::ofstream os(path_, std::ios::trunc);
    if (!os.is_open())
        fatal("ResultWriter: cannot open %s for writing", path_.c_str());
    serialize(os);
}

} // namespace sim
} // namespace silc
