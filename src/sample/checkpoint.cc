#include "sample/checkpoint.hh"

#include "common/serialize.hh"
#include "sim/system.hh"

namespace silc {
namespace sample {

Checkpoint
capture(const sim::System &system, uint64_t warm_instructions)
{
    Checkpoint c;
    c.warm_instructions = warm_instructions;
    BlobWriter w;
    system.snapshotState(w);
    c.blob = w.take();
    return c;
}

void
restore(sim::System &system, const Checkpoint &ckpt)
{
    BlobReader r(ckpt.blob);
    system.restoreState(r);
}

} // namespace sample
} // namespace silc
