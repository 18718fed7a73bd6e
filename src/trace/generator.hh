/**
 * @file
 * Synthetic SPEC-like instruction trace generation.
 *
 * The paper evaluates 14 SPEC CPU2006 benchmarks in rate mode (one copy
 * per core) using 1B-instruction SimPoint slices.  SPEC traces are not
 * redistributable, so this module synthesises address streams with the
 * properties that differentiate the schemes under study:
 *
 *  - memory intensity (drives LLC MPKI class: low / medium / high),
 *  - footprint relative to NM capacity,
 *  - spatial locality (subblocks touched per 2KB block, run lengths),
 *  - temporal skew of page popularity (Zipf hot sets),
 *  - hot-set phase changes (short-lived hot pages, as in gems/milc).
 */

#ifndef SILC_TRACE_GENERATOR_HH
#define SILC_TRACE_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace silc {

class Blob;

namespace trace {

/** One instruction of a trace. */
struct TraceInstruction
{
    bool is_mem = false;
    bool is_write = false;
    Addr vaddr = 0;
    Addr pc = 0;
};

/** An infinite instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next instruction. */
    virtual TraceInstruction next() = 0;

    /**
     * Checkpoint the stream position (common/serialize.hh).  The
     * default fatal()s: sources that cannot round-trip their state must
     * not be sampled (SamplingController checks policy support, and all
     * shipped sources implement this).
     */
    virtual void checkpoint(Blob &b);
};

/** MPKI class from Table III. */
enum class MpkiClass { Low, Medium, High };

/** Printable name of an MPKI class. */
const char *mpkiClassName(MpkiClass c);

/**
 * Knobs describing one synthetic benchmark.  See trace/profiles.cc for
 * the 14 Table III instances.
 */
struct WorkloadProfile
{
    std::string name = "synthetic";
    MpkiClass mpki_class = MpkiClass::Medium;

    /** Per-core data footprint in bytes (2KB-page granular). */
    uint64_t footprint_bytes = 8 * 1024 * 1024;

    /** Fraction of instructions that access memory. */
    double mem_fraction = 0.30;

    /** Fraction of memory accesses that are stores. */
    double write_fraction = 0.25;

    /**
     * Fraction of memory accesses that go to a small, cache-resident
     * region — raises L1/L2 hit rates and therefore lowers LLC MPKI.
     */
    double cache_friendly_fraction = 0.40;

    /** Size of the cache-resident region in bytes. */
    uint64_t friendly_bytes = 16 * 1024;

    /**
     * Fraction of LLC-bound accesses produced by a sequential streaming
     * pointer (high spatial locality); the rest come from Zipf-skewed
     * hot pages.
     */
    double stream_fraction = 0.5;

    /** Zipf skew of hot-page popularity (0 = uniform). */
    double zipf_alpha = 0.8;

    /** Mean sequential 64B run length for streaming bursts. */
    uint32_t stream_run_subblocks = 16;

    /** Mean 64B run length for hot-page bursts. */
    uint32_t hot_run_subblocks = 2;

    /**
     * Fraction of each 2KB page that is ever touched by hot-page
     * accesses (spatial density; PoM wastes bandwidth when this is low).
     */
    double page_density = 0.5;

    /**
     * Memory accesses between hot-set re-randomisations (0 = static hot
     * set).  Models short-lived hot pages that defeat epoch schemes.
     */
    uint64_t phase_interval = 0;

    /** Distinct static instruction addresses generating memory ops. */
    uint32_t mem_pc_count = 64;

    /** Number of 2KB pages in the footprint. */
    uint64_t
    footprintPages() const
    {
        return footprint_bytes / kLargeBlockSize;
    }
};

/**
 * The synthetic generator.  Deterministic given (profile, seed); each
 * core instantiates its own copy with a distinct seed.
 */
class SyntheticGenerator : public TraceSource
{
  public:
    SyntheticGenerator(WorkloadProfile profile, uint64_t seed);

    TraceInstruction next() override;

    /**
     * Checkpoint the mutable stream state (RNG, hot permutation, burst
     * machine, counters).  Ctor-pure tables (page_masks_, zipf_,
     * mem_pcs_) are not captured: a checkpoint is read into a generator
     * built with the same (profile, seed), which the ctor memo makes
     * exact.
     */
    void checkpoint(Blob &b) override;

    const WorkloadProfile &profile() const { return profile_; }

    /** Memory instructions generated so far. */
    uint64_t memOpsGenerated() const { return mem_ops_; }

    /** Hot-set phase changes that have occurred. */
    uint64_t phaseChanges() const { return phase_changes_; }

  private:
    /** Start a new memory burst (choose region, page, offset, length). */
    void startBurst();

    /** Re-randomise the hot-page ranking (phase change). */
    void reshuffleHotSet();

    /** vaddr of subblock @p sub in footprint page @p page. */
    Addr pageSubAddr(uint64_t page, uint32_t sub) const;

    WorkloadProfile profile_;
    Rng rng_;
    std::unique_ptr<ZipfSampler> zipf_;

    /** rank -> page permutation (re-seeded on phase changes). */
    std::vector<uint32_t> hot_perm_;

    /** per-page 32-bit mask of "used" subblocks (spatial density). */
    std::vector<uint32_t> page_masks_;

    std::vector<Addr> mem_pcs_;
    Addr nonmem_pc_ = 0x400000;

    // Burst state.
    bool burst_is_stream_ = false;
    uint32_t burst_left_ = 0;
    Addr burst_addr_ = 0;
    Addr burst_pc_ = 0;
    uint64_t burst_page_ = 0;
    uint32_t burst_bit_ = 0;
    uint64_t stream_cursor_ = 0;

    uint64_t mem_ops_ = 0;
    /** Mem ops until the next hot-set reshuffle; 0 disables phases. */
    uint64_t phase_countdown_ = 0;
    uint64_t phase_changes_ = 0;
    uint64_t instr_count_ = 0;
};

} // namespace trace
} // namespace silc

#endif // SILC_TRACE_GENERATOR_HH
