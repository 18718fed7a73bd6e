/**
 * @file
 * Checkpoint capture/restore for the statistical sampling subsystem
 * (src/sample/sampling.hh).
 *
 * A checkpoint is the architectural state of a sim::System serialized to
 * an in-memory blob: translation mappings, cache contents, policy
 * metadata (SILC-FM remap/bit-vector/lock state, predictor and balancer
 * state, counters) and per-core trace positions.  Timing state — MSHRs,
 * DRAM queues, in-flight events — is deliberately excluded: checkpoints
 * are only taken at quiesced functional-warming pause points where all
 * of it is empty (System::checkpoint() asserts this), and each replay
 * re-warms the timing structures during its detailed-warmup prefix.
 *
 * Because replays construct their System from the identical
 * SystemConfig, constructor-derived state (frame shuffle order, workload
 * profile tables, RNG-free masks) is reproduced exactly and never
 * serialized; only mutable runtime state goes into the blob.
 */

#ifndef SILC_SAMPLE_CHECKPOINT_HH
#define SILC_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <vector>

namespace silc {

namespace sim {
class System;
} // namespace sim

namespace sample {

/** One captured execution point of a warming run. */
struct Checkpoint
{
    /** Per-core retired-instruction count at capture time. */
    uint64_t warm_instructions = 0;
    /** Serialized architectural state (common/serialize.hh format). */
    std::vector<uint8_t> blob;
};

/**
 * Serialize @p system into a checkpoint.  The system must be paused at a
 * functional-warming instruction boundary (System::runToBudget()
 * returned true in functional mode): empty MSHRs, idle DRAM devices.
 */
Checkpoint capture(sim::System &system, uint64_t warm_instructions);

/**
 * Restore @p ckpt into @p system, which must be freshly constructed from
 * the warming run's SystemConfig with check off (fatal on policy/
 * core-count mismatch, truncation, trailing bytes, or the oracle on).
 */
void restore(sim::System &system, const Checkpoint &ckpt);

} // namespace sample
} // namespace silc

#endif // SILC_SAMPLE_CHECKPOINT_HH
