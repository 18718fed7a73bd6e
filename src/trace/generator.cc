#include "trace/generator.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace trace {

namespace {

/** Virtual base of the LLC-bound data footprint. */
constexpr Addr kDataBase = 0x1000'0000;
/** Virtual base of the small cache-resident region. */
constexpr Addr kFriendlyBase = 0x0800'0000;
/** Virtual base of synthetic code addresses. */
constexpr Addr kCodeBase = 0x0040'0000;

/** Exponential run length with the given mean, at least 1. */
uint32_t
runLength(Rng &rng, uint32_t mean)
{
    if (mean <= 1)
        return 1;
    const double u = rng.uniform();
    const double len = -std::log(1.0 - u) * static_cast<double>(mean);
    return std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(len)));
}

} // namespace

void
TraceSource::checkpoint(Blob &)
{
    fatal("this trace source does not support checkpointing");
}

const char *
mpkiClassName(MpkiClass c)
{
    switch (c) {
      case MpkiClass::Low: return "low";
      case MpkiClass::Medium: return "medium";
      case MpkiClass::High: return "high";
    }
    return "?";
}

SyntheticGenerator::SyntheticGenerator(WorkloadProfile profile,
                                       uint64_t seed)
    : profile_(std::move(profile)), rng_(seed),
      mem_threshold_(Rng::threshold(profile_.mem_fraction)),
      write_threshold_(Rng::threshold(profile_.write_fraction)),
      friendly_threshold_(
          Rng::threshold(profile_.cache_friendly_fraction)),
      stream_threshold_(Rng::threshold(profile_.stream_fraction))
{
    const uint64_t pages = profile_.footprintPages();
    if (pages == 0)
        fatal("workload '%s' has an empty footprint",
              profile_.name.c_str());
    if (profile_.mem_fraction <= 0.0 || profile_.mem_fraction > 1.0)
        fatal("workload '%s': mem_fraction out of (0,1]",
              profile_.name.c_str());

    zipf_ = std::make_unique<ZipfSampler>(pages, profile_.zipf_alpha);

    hot_perm_.resize(pages);
    for (uint64_t i = 0; i < pages; ++i)
        hot_perm_[i] = static_cast<uint32_t>(i);
    reshuffleHotSet();

    // Spatial density: each page exposes a fixed subset of its
    // subblocks to hot-page accesses (a property of the data-structure
    // layout).
    page_masks_.resize(pages);
    const uint32_t used = std::max<uint32_t>(
        1,
        static_cast<uint32_t>(std::lround(
            profile_.page_density * kSubblocksPerBlock)));
    for (uint64_t p = 0; p < pages; ++p) {
        uint32_t mask = 0;
        uint32_t set_bits = 0;
        while (set_bits < used) {
            const uint32_t bit =
                static_cast<uint32_t>(rng_.below(kSubblocksPerBlock));
            if (!(mask & (1u << bit))) {
                mask |= (1u << bit);
                ++set_bits;
            }
        }
        page_masks_[p] = mask;
    }
    phase_changes_ = 0;   // the constructor shuffle is not a phase change
    phase_countdown_ = profile_.phase_interval;

    mem_pcs_.resize(std::max<uint32_t>(1, profile_.mem_pc_count));
    for (size_t i = 0; i < mem_pcs_.size(); ++i)
        mem_pcs_[i] = kCodeBase + static_cast<Addr>(i) * 4;
}

void
SyntheticGenerator::reshuffleHotSet()
{
    // Fisher-Yates with the trace RNG: the hot ranking changes, modelling
    // an execution phase change.
    for (uint64_t i = hot_perm_.size(); i > 1; --i) {
        const uint64_t j = rng_.below(i);
        std::swap(hot_perm_[i - 1], hot_perm_[j]);
    }
    ++phase_changes_;
}

Addr
SyntheticGenerator::pageSubAddr(uint64_t page, uint32_t sub) const
{
    return kDataBase + page * kLargeBlockSize +
        static_cast<Addr>(sub) * kSubblockSize;
}

void
SyntheticGenerator::startBurst()
{
    const uint64_t pages = profile_.footprintPages();
    if (rng_.chanceBelow(stream_threshold_)) {
        // Sequential streaming burst touching every subblock.
        burst_is_stream_ = true;
        burst_left_ = runLength(rng_, profile_.stream_run_subblocks);
        burst_addr_ = kDataBase +
            (stream_cursor_ % (pages * kSubblocksPerBlock)) *
                kSubblockSize;
        burst_pc_ = mem_pcs_[(stream_cursor_ / 1024) % 8 %
                             mem_pcs_.size()];
    } else {
        // Hot-page burst: Zipf-ranked page, offsets from the page's
        // used-subblock mask.
        burst_is_stream_ = false;
        const uint64_t rank = zipf_->sample(rng_);
        const uint64_t page = hot_perm_[rank];
        const uint32_t mask = page_masks_[page];
        // Choose a random set bit as the starting subblock.
        const uint32_t nth =
            static_cast<uint32_t>(rng_.below(std::popcount(mask)));
        uint32_t seen = 0;
        uint32_t start = 0;
        for (uint32_t b = 0; b < kSubblocksPerBlock; ++b) {
            if (mask & (1u << b)) {
                if (seen == nth) {
                    start = b;
                    break;
                }
                ++seen;
            }
        }
        burst_left_ = runLength(rng_, profile_.hot_run_subblocks);
        burst_page_ = page;
        burst_bit_ = start;
        burst_addr_ = pageSubAddr(page, start);
        burst_pc_ = mem_pcs_[(page + 8) % mem_pcs_.size()];
    }
}

TraceInstruction
SyntheticGenerator::next()
{
    ++instr_count_;
    TraceInstruction ins;

    if (!rng_.chanceBelow(mem_threshold_)) {
        nonmem_pc_ += 4;
        if (nonmem_pc_ > kCodeBase + 64 * 1024)
            nonmem_pc_ = kCodeBase;
        ins.pc = nonmem_pc_;
        return ins;
    }

    ins.is_mem = true;
    ins.is_write = rng_.chanceBelow(write_threshold_);
    ++mem_ops_;

    if (phase_countdown_ != 0 && --phase_countdown_ == 0) {
        reshuffleHotSet();
        phase_countdown_ = profile_.phase_interval;
    }

    if (rng_.chanceBelow(friendly_threshold_)) {
        // Cache-resident region: high L1/L2 hit rate, controls MPKI.
        const uint64_t lines = profile_.friendly_bytes / kSubblockSize;
        ins.vaddr = kFriendlyBase + rng_.below(lines) * kSubblockSize;
        ins.pc = mem_pcs_[rng_.below(4)];
        return ins;
    }

    if (burst_left_ == 0)
        startBurst();

    ins.vaddr = burst_addr_;
    ins.pc = burst_pc_;
    --burst_left_;

    if (burst_is_stream_) {
        ++stream_cursor_;
        if (burst_left_ > 0) {
            const uint64_t pages = profile_.footprintPages();
            burst_addr_ = kDataBase +
                (stream_cursor_ % (pages * kSubblocksPerBlock)) *
                    kSubblockSize;
        }
    } else if (burst_left_ > 0) {
        // Advance to the next used subblock within the hot page; stop
        // the burst once the mask wraps.
        const uint32_t mask = page_masks_[burst_page_];
        uint32_t b = burst_bit_ + 1;
        while (b < kSubblocksPerBlock && !(mask & (1u << b)))
            ++b;
        if (b >= kSubblocksPerBlock) {
            burst_left_ = 0;
        } else {
            burst_bit_ = b;
            burst_addr_ = pageSubAddr(burst_page_, b);
        }
    }
    return ins;
}

void
SyntheticGenerator::checkpoint(Blob &b)
{
    std::array<uint64_t, 4> s = rng_.state();
    for (uint64_t &word : s)
        b.u64(word);
    rng_.setState(s);
    b.items(hot_perm_, "trace hot set size");
    b.u64(nonmem_pc_);
    b.flag(burst_is_stream_);
    b.u32(burst_left_);
    b.u64(burst_addr_);
    b.u64(burst_pc_);
    b.u64(burst_page_);
    b.u32(burst_bit_);
    b.u64(stream_cursor_);
    b.u64(mem_ops_);
    b.u64(phase_countdown_);
    b.u64(phase_changes_);
    b.u64(instr_count_);
}

} // namespace trace
} // namespace silc
