#include "check/shadow.hh"

#include <sstream>
#include <unordered_set>

#include "common/logging.hh"

namespace silc {
namespace check {

using policy::Location;

namespace {

std::string
locString(const Location &loc)
{
    std::ostringstream os;
    os << (loc.in_nm ? "NM" : "FM") << "+0x" << std::hex
       << loc.device_addr;
    return os.str();
}

} // namespace

ShadowChecker::ShadowChecker(const policy::FlatMemoryPolicy &policy)
    : ShadowChecker(policy, Options{})
{
}

ShadowChecker::ShadowChecker(const policy::FlatMemoryPolicy &policy,
                             Options opts)
    : policy_(policy), opts_(opts)
{
    silc_assert(opts_.sweep_interval > 0);
    blocks_ = policy_.flatSpaceBytes() / kSubblockSize;
}

void
ShadowChecker::fail(const std::string &why)
{
    if (opts_.panic_on_divergence) {
        panic("shadow oracle [%s]: %s (after %llu checked accesses)",
              policy_.name(), why.c_str(),
              static_cast<unsigned long long>(checked_));
    }
    if (!failed_) {
        failed_ = true;
        failure_ = why;
    }
}

uint64_t
ShadowChecker::versionOf(uint64_t block) const
{
    const uint64_t *v = version_.find(block);
    return v != nullptr ? *v : 0;
}

std::optional<ShadowChecker::Entry>
ShadowChecker::lookup(uint64_t k) const
{
    const Entry *e = content_.find(k);
    if (e != nullptr) {
        if (e->block == kEmptyBlock)
            return std::nullopt;
        return *e;
    }
    const Addr home_flat = policy_.homeFlatAddr(locationOfKey(k));
    if (home_flat == kAddrInvalid)
        return std::nullopt;
    return Entry{home_flat >> kSubblockBits, 0};
}

bool
ShadowChecker::entryMatches(uint64_t k, const Entry &want) const
{
    const std::optional<Entry> e = lookup(k);
    return e.has_value() && *e == want;
}

void
ShadowChecker::onBlockCopied(const Location &src, const Location &dst)
{
    const uint64_t sk = key(src);
    const uint64_t dk = key(dst);
    // Keep only the FIRST displacement per location since the last
    // demand: that is the location's at-access-start content.
    const std::optional<Entry> prior = lookup(dk);
    if (prior.has_value()) {
        displaced_.emplace(dk, *prior);
        touch(prior->block);
    }
    const std::optional<Entry> moved = lookup(sk);
    if (moved.has_value()) {
        content_.set(dk, *moved);
        touch(moved->block);
    } else {
        content_.set(dk, Entry{kEmptyBlock, 0});
    }
}

void
ShadowChecker::onBlocksSwapped(const Location &a, const Location &b)
{
    const uint64_t ak = key(a);
    const uint64_t bk = key(b);
    const std::optional<Entry> ae = lookup(ak);
    const std::optional<Entry> be = lookup(bk);
    if (ae.has_value()) {
        displaced_.emplace(ak, *ae);
        touch(ae->block);
    }
    if (be.has_value()) {
        displaced_.emplace(bk, *be);
        touch(be->block);
    }
    content_.set(ak, be.has_value() ? *be : Entry{kEmptyBlock, 0});
    content_.set(bk, ae.has_value() ? *ae : Entry{kEmptyBlock, 0});
}

void
ShadowChecker::onDemandResolved(Addr paddr, bool is_write, CoreId core,
                                Addr pc, const Location &serviced)
{
    (void)core;
    (void)pc;
    if (failed_)
        return;

    const Addr sub = subblockAddr(paddr);
    const uint64_t block = sub >> kSubblockBits;
    silc_assert(block < blocks_);
    const Entry want{block, versionOf(block)};

    // Invariant 1: the serviced location holds (or held, at access
    // start, for migrate-on-access schemes) the block's current data.
    const uint64_t sk = key(serviced);
    bool observed = entryMatches(sk, want);
    if (!observed) {
        auto it = displaced_.find(sk);
        observed = it != displaced_.end() && it->second == want;
    }
    if (!observed) {
        std::ostringstream os;
        os << "demand " << (is_write ? "write" : "read") << " of flat 0x"
           << std::hex << sub << std::dec << " serviced from "
           << locString(serviced)
           << " which does not hold the last write (version "
           << want.version << ") of that block";
        fail(os.str());
        return;
    }
    displaced_.clear();

    // Invariant 2: after the access (and any migrations it triggered),
    // the location the scheme reports for the block actually holds its
    // current data — nothing was lost or stale-duplicated in flight.
    const Location loc = policy_.locate(sub);
    const uint64_t lk = key(loc);
    if (!entryMatches(lk, want)) {
        std::ostringstream os;
        os << "flat 0x" << std::hex << sub << std::dec
           << " locates to " << locString(loc)
           << " after the access, but that location does not hold its "
              "current data (lost in migration)";
        fail(os.str());
        return;
    }
    if (is_write) {
        const uint64_t v = versionOf(block) + 1;
        version_.set(block, v);
        content_.set(lk, Entry{block, v});
        touch(block);
    }

    ++checked_;
    if (checked_ % opts_.sweep_interval == 0)
        sweep();
}

bool
ShadowChecker::sweep()
{
    if (failed_)
        return false;
    const policy::PolicyEnv &env = policy_.environment();
    const uint64_t nm_cap = env.nm != nullptr ? env.nm->capacity() : 0;
    const uint64_t fm_cap = env.fm->capacity();
    const uint64_t nm_home_blocks =
        policy_.homeNmBytes() / kSubblockSize;

    // Untouched blocks are at home with version 0: their locations are
    // in-bounds by construction, mutually distinct, and hold exactly
    // their data.  The sweep walks the touched set (ascending, for a
    // deterministic first diagnosis) and checks collisions both among
    // touched blocks and against untouched blocks' implicit homes.
    std::unordered_set<uint64_t> seen;
    seen.reserve(touched_.size());
    uint64_t touched_nm_home = 0;
    uint64_t touched_in_nm = 0;
    for (uint64_t b : touched_.sortedKeys()) {
        const Addr flat = b * kSubblockSize;
        const Location loc = policy_.locate(flat);
        const uint64_t cap = loc.in_nm ? nm_cap : fm_cap;
        if (loc.device_addr + kSubblockSize > cap) {
            std::ostringstream os;
            os << "flat block " << b << " locates to " << locString(loc)
               << ", beyond the device capacity (capacity overflow)";
            fail(os.str());
            return false;
        }
        const uint64_t k = key(loc);
        if (!seen.insert(k).second) {
            std::ostringstream os;
            os << "flat block " << b << " locates to " << locString(loc)
               << ", already claimed by another block (duplicate "
                  "mapping)";
            fail(os.str());
            return false;
        }
        // An untouched block is still at its home; a touched block
        // sitting there duplicates it.
        const Addr home_flat = policy_.homeFlatAddr(loc);
        if (home_flat != kAddrInvalid) {
            const uint64_t home_block = home_flat >> kSubblockBits;
            if (home_block != b &&
                touched_.find(home_block) == nullptr) {
                std::ostringstream os;
                os << "flat block " << b << " locates to "
                   << locString(loc)
                   << ", already claimed by another block (duplicate "
                      "mapping)";
                fail(os.str());
                return false;
            }
        }
        if (!entryMatches(k, Entry{b, versionOf(b)})) {
            std::ostringstream os;
            os << "flat block " << b << " locates to " << locString(loc)
               << " which does not hold its last-written data (lost "
                  "write)";
            fail(os.str());
            return false;
        }
        if (loc.in_nm)
            ++touched_in_nm;
        if (policy_.homeLocation(flat).in_nm)
            ++touched_nm_home;
    }
    // NM residents = NM-homed blocks, minus the touched ones that have
    // homes there (wherever they are now), plus the touched ones
    // currently in NM.
    silc_assert(touched_nm_home <= nm_home_blocks);
    const uint64_t nm_resident =
        nm_home_blocks - touched_nm_home + touched_in_nm;
    if (nm_resident * kSubblockSize > nm_cap) {
        std::ostringstream os;
        os << "NM occupancy " << nm_resident * kSubblockSize
           << " bytes exceeds NM capacity " << nm_cap << " bytes";
        fail(os.str());
        return false;
    }
    ++sweeps_;
    return true;
}

bool
ShadowChecker::verifyFullState()
{
    return sweep() && !failed_;
}

} // namespace check
} // namespace silc
