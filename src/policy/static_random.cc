#include "policy/static_random.hh"

#include "common/logging.hh"

namespace silc {
namespace policy {

StaticRandomPolicy::StaticRandomPolicy(PolicyEnv env)
    : FlatMemoryPolicy(env)
{
}

uint64_t
StaticRandomPolicy::flatSpaceBytes() const
{
    const uint64_t nm_bytes = env_.nm ? env_.nm->capacity() : 0;
    return nm_bytes + env_.fm->capacity();
}

Location
StaticRandomPolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    return identityLocation(subblockAddr(paddr));
}

void
StaticRandomPolicy::demandAccess(Addr paddr, bool is_write, CoreId core,
                                 Addr pc, DemandCallback done, Tick now)
{
    const Location loc = locate(paddr);
    recordService(loc.in_nm);
    issueRead(deviceFor(loc), loc.device_addr,
              static_cast<uint32_t>(kSubblockSize),
              dram::TrafficClass::Demand, core, std::move(done), now);
    notifyDemand(paddr, is_write, core, pc, loc);
}

} // namespace policy
} // namespace silc
