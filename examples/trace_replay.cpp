/**
 * @file
 * Trace record/replay scenario: capture an instruction trace once (here
 * from a synthetic workload; in practice from your own Pin/DynamoRIO
 * tooling via the documented `silctrace` format), then replay it through
 * different memory organizations for an apples-to-apples comparison —
 * replayed runs are bit-identical across schemes and machines.
 *
 *     SILC_WORKLOAD=omnet SILC_INSTR=400000 ./example_trace_replay
 *
 * It records SILC_INSTR instructions of SILC_WORKLOAD (default omnet)
 * to /tmp/silcfm_example.trace and replays them on 4 cores.
 */

#include <cstdio>
#include <string>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/file_trace.hh"
#include "trace/profiles.hh"

using namespace silc;

int
main(int argc, char **argv)
{
    sim::checkArguments(argc, argv, false);
    sim::ExperimentOptions opts = sim::ExperimentOptions::fromEnv();
    const std::string workload = opts.workload.value_or("omnet");
    const std::string path = "/tmp/silcfm_example.trace";

    // 1. Record.
    {
        trace::SyntheticGenerator gen(trace::findProfile(workload), 1);
        trace::TraceWriter writer(path);
        writer.record(gen, opts.instructions_per_core);
        writer.finish();
        std::printf("recorded %llu instructions of '%s' to %s\n",
                    static_cast<unsigned long long>(
                        writer.instructionsWritten()),
                    workload.c_str(), path.c_str());
    }

    // 2. Replay the same trace under three organizations.
    opts.cores = 4;

    std::printf("\n%-8s %12s %10s %10s\n", "scheme", "ticks", "IPC",
                "accrate");
    Tick base_ticks = 0;
    for (const char *kind : {"fmonly", "cam", "silcfm"}) {
        sim::SystemConfig cfg = sim::makeConfig(workload, kind, opts);
        cfg.trace_file = path;
        sim::System system(cfg);
        sim::SimResult r = system.run();
        if (std::string(kind) == "fmonly")
            base_ticks = r.ticks;
        std::printf("%-8s %12llu %10.3f %10.3f   (speedup %.3f)\n",
                    r.scheme.c_str(),
                    static_cast<unsigned long long>(r.ticks), r.ipc,
                    r.access_rate,
                    static_cast<double>(base_ticks) / r.ticks);
    }

    std::printf("\nEvery core replays the recorded stream verbatim "
                "(SPEC rate mode); rerunning this binary reproduces "
                "these numbers exactly.\n");
    return 0;
}
