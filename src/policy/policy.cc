#include "policy/policy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "telemetry/sampler.hh"

namespace silc {
namespace policy {

FlatMemoryPolicy::FlatMemoryPolicy(PolicyEnv env)
    : env_(env)
{
    silc_assert(env_.fm != nullptr);
    silc_assert(env_.events != nullptr);
    // env_.nm may be null only for the no-NM baseline.
}

uint64_t
FlatMemoryPolicy::homeNmBytes() const
{
    const uint64_t nm_bytes = env_.nm ? env_.nm->capacity() : 0;
    return std::min(nm_bytes, flatSpaceBytes());
}

Location
FlatMemoryPolicy::homeLocation(Addr paddr) const
{
    const Addr sub = subblockAddr(paddr);
    const uint64_t nm_home = homeNmBytes();
    if (sub < nm_home)
        return Location{true, sub};
    return Location{false, sub - nm_home};
}

Addr
FlatMemoryPolicy::homeFlatAddr(const Location &loc) const
{
    const uint64_t nm_home = homeNmBytes();
    if (loc.in_nm)
        return loc.device_addr < nm_home ? loc.device_addr : kAddrInvalid;
    return nm_home + loc.device_addr;
}

Location
FlatMemoryPolicy::identityLocation(Addr paddr) const
{
    const uint64_t nm_bytes = env_.nm ? env_.nm->capacity() : 0;
    Location loc;
    if (paddr < nm_bytes) {
        loc.in_nm = true;
        loc.device_addr = paddr;
    } else {
        loc.in_nm = false;
        loc.device_addr = paddr - nm_bytes;
    }
    return loc;
}

dram::DramSystem &
FlatMemoryPolicy::deviceFor(const Location &loc) const
{
    if (loc.in_nm) {
        silc_assert(env_.nm != nullptr);
        return *env_.nm;
    }
    return *env_.fm;
}

void
FlatMemoryPolicy::issueRead(dram::DramSystem &dev, Addr dev_addr,
                            uint32_t bytes, dram::TrafficClass cls,
                            CoreId core, DemandCallback cb, Tick now,
                            int force_channel)
{
    // Functional (warming) mode: the data is "available" immediately and
    // no timing state is touched.  Completing synchronously keeps
    // dependent chains (migration read->write, serialized metadata
    // fetches) running so the policy state machines behave identically.
    if (functional_mode_) {
        if (cb)
            cb(now);
        return;
    }
    dram::DramRequest req;
    req.addr = dev_addr;
    req.is_write = false;
    req.bytes = bytes;
    req.traffic = cls;
    req.core = core;
    req.force_channel = force_channel;
    req.on_complete = std::move(cb);
    dev.issue(std::move(req), now);
}

void
FlatMemoryPolicy::issueWrite(dram::DramSystem &dev, Addr dev_addr,
                             uint32_t bytes, dram::TrafficClass cls,
                             CoreId core, Tick now, int force_channel)
{
    if (functional_mode_)
        return;
    dram::DramRequest req;
    req.addr = dev_addr;
    req.is_write = true;
    req.bytes = bytes;
    req.traffic = cls;
    req.core = core;
    req.force_channel = force_channel;
    dev.issue(std::move(req), now);
}

void
FlatMemoryPolicy::moveSubblockQuiet(const Location &src,
                                    const Location &dst, CoreId core,
                                    Tick now)
{
    ++migration_ops_;
    dram::DramSystem &src_dev = deviceFor(src);
    dram::DramSystem *dst_dev = &deviceFor(dst);
    const Addr dst_addr = dst.device_addr;
    issueRead(src_dev, src.device_addr,
              static_cast<uint32_t>(kSubblockSize),
              dram::TrafficClass::Migration, core,
              [this, dst_dev, dst_addr, core](Tick t) {
                  issueWrite(*dst_dev, dst_addr,
                             static_cast<uint32_t>(kSubblockSize),
                             dram::TrafficClass::Migration, core, t);
              },
              now);
}

void
FlatMemoryPolicy::moveSubblock(const Location &src, const Location &dst,
                               CoreId core, Tick now)
{
    moveSubblockQuiet(src, dst, core, now);
    notifyCopy(src, dst);
}

void
FlatMemoryPolicy::swapSubblocks(const Location &a, const Location &b,
                                CoreId core, Tick now)
{
    // Byte-identical traffic to the paired moveSubblock(a, b) +
    // moveSubblock(b, a) the schemes used to issue: both reads at @p
    // now, both writes chained on the read completions.
    moveSubblockQuiet(a, b, core, now);
    moveSubblockQuiet(b, a, core, now);
    notifySwap(a, b);
}

void
FlatMemoryPolicy::registerTelemetry(telemetry::Sampler &sampler) const
{
    sampler.addCounter("policy.nmServiced",
                       [this] { return double(nmServiced()); });
    sampler.addCounter("policy.fmServiced",
                       [this] { return double(fmServiced()); });
    sampler.addCounter("policy.migrationOps",
                       [this] { return double(migrationOps()); });
    // Equation 1, per epoch rather than end-of-run: the NM-serviced
    // share of the demand misses that arrived within the epoch.
    sampler.addRatio("policy.hitRate",
                     [this] { return double(nmServiced()); },
                     [this] { return double(demandRequests()); });
}

void
FlatMemoryPolicy::writeback(Addr paddr, CoreId core, Tick now)
{
    const Location loc = locate(subblockAddr(paddr));
    issueWrite(deviceFor(loc), loc.device_addr,
               static_cast<uint32_t>(kSubblockSize),
               dram::TrafficClass::Writeback, core, now);
}

void
FlatMemoryPolicy::checkpoint(Blob &b)
{
    b.u64(nm_serviced_);
    b.u64(fm_serviced_);
    b.u64(migration_ops_);
}

} // namespace policy
} // namespace silc
