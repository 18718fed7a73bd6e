#include "sample/checkpoint.hh"

#include "common/serialize.hh"
#include "sim/system.hh"

namespace silc {
namespace sample {

Checkpoint
capture(sim::System &system, uint64_t warm_instructions)
{
    Blob b;
    system.checkpoint(b);
    return Checkpoint{warm_instructions, b.take()};
}

void
restore(sim::System &system, const Checkpoint &ckpt)
{
    Blob b(ckpt.blob);
    system.checkpoint(b);
}

} // namespace sample
} // namespace silc
