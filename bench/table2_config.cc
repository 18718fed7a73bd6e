/**
 * @file
 * Table II — "Experimental Parameters": prints the active system
 * configuration next to the paper's values, flagging every deliberate
 * scaling substitution (see DESIGN.md).
 */

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "core/silc_fm.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace silc;
using namespace silc::sim;

namespace {

void
row(const char *name, const std::string &ours, const char *paper)
{
    std::printf("  %-28s %-26s %s\n", name, ours.c_str(), paper);
}

std::string
fmt(const char *f, ...)
{
    char buf[128];
    va_list args;
    va_start(args, f);
    std::vsnprintf(buf, sizeof(buf), f, args);
    va_end(args);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    checkArguments(argc, argv, false);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    SystemConfig cfg = makeConfig("mcf", "silcfm", opts);

    std::printf("=== Table II: experimental parameters "
                "(this repo vs paper) ===\n\n");

    std::printf("Processor\n");
    row("cores", fmt("%u", cfg.cores), "16 (scaled: 1/2)");
    row("width", fmt("%u-wide OoO (ROB model)", cpu::kWidth),
        "4-wide out-of-order");
    row("ROB entries", fmt("%u", cpu::kRobEntries), "128");

    std::printf("\nCaches\n");
    // The trace-driven core fetches instructions for free.
    row("L1 I (private)", "not modeled", "64KB, 2-way, 4 cycles");
    row("L1 D (private)",
        fmt("%" PRIu64 "KB, %u-way, %u cycles",
            cfg.l1d.size_bytes >> 10,
            cfg.l1d.associativity, cfg.l1d.latency_cycles),
        "16KB, 4-way, 4 cycles");
    row("L2 (shared)",
        fmt("%" PRIu64 "KB, %u-way, %u cycles",
            cfg.l2.size_bytes >> 10,
            cfg.l2.associativity, cfg.l2.latency_cycles),
        "8MB, 16-way, 11 cycles (scaled with footprints)");

    std::printf("\nNM (HBM)\n");
    row("bus frequency",
        fmt("%u MHz (DDR %.1f GT/s)", cfg.nm_timing.bus_freq_mhz,
            cfg.nm_timing.bus_freq_mhz * 2 / 1000.0),
        "800 MHz (DDR 1.6 GT/s)");
    row("bus width", fmt("%u bits", cfg.nm_timing.bus_width_bits),
        "128 bits (scaled with core count)");
    row("channels", fmt("%u", cfg.nm_timing.channels), "8");
    row("banks/rank", fmt("%u", cfg.nm_timing.banks_per_rank), "8");
    row("row buffer",
        fmt("%" PRIu64 "KB open-page",
            cfg.nm_timing.row_buffer_bytes >> 10),
        "8KB open-page");
    row("tCAS-tRCD-tRP-tRAS",
        fmt("%u-%u-%u-%u", cfg.nm_timing.t_cas, cfg.nm_timing.t_rcd,
            cfg.nm_timing.t_rp, cfg.nm_timing.t_ras),
        "JEDEC 235A derived");
    row("capacity", fmt("%" PRIu64 " MiB", cfg.nm_bytes >> 20),
        "FM:NM = 4:1 (same ratio)");

    std::printf("\nFM (DDR3)\n");
    row("bus frequency",
        fmt("%u MHz (DDR %.1f GT/s)", cfg.fm_timing.bus_freq_mhz,
            cfg.fm_timing.bus_freq_mhz * 2 / 1000.0),
        "800 MHz (DDR 1.6 GT/s)");
    row("bus width", fmt("%u bits", cfg.fm_timing.bus_width_bits),
        "64 bits");
    row("channels", fmt("%u", cfg.fm_timing.channels),
        "4 (scaled with core count; NM:FM bandwidth stays 4:1)");
    row("banks/rank", fmt("%u", cfg.fm_timing.banks_per_rank), "8");
    row("queues/channel",
        fmt("%u read + %u write", cfg.fm_timing.queue_depth,
            cfg.fm_timing.queue_depth),
        "32-entry read and write");
    row("capacity", fmt("%" PRIu64 " MiB", cfg.fm_bytes >> 20),
        "multi-GB (scaled 1/1000; ratios preserved)");

    std::printf("\nSILC-FM\n");
    row("associativity", fmt("%u-way", cfg.silc.associativity),
        "4-way");
    row("hot threshold",
        fmt("%u (aging every %" PRIu64 " accesses)",
            cfg.silc.hot_threshold, cfg.silc.aging_interval),
        "50 (aging every 1M accesses; scaled together)");
    row("bypass target", fmt("%.2f", cfg.silc.bypass_target),
        "0.8 access rate");
    row("predictor", fmt("%" PRIu64 " entries", core::kPredictorEntries),
        "4K entries, 1 cycle");
    row("history table",
        fmt("%" PRIu64 " entries", cfg.silc.history_entries),
        "1M entries");

    const double ratio = dram::DramTimingParams(cfg.nm_timing)
                             .peakBytesPerTick() /
        dram::DramTimingParams(cfg.fm_timing).peakBytesPerTick();
    std::printf("\nNM:FM peak bandwidth ratio: %.1f:1 "
                "(paper: 4:1, bypass math needs N+1 = 5)\n", ratio);
    return 0;
}
