/**
 * @file
 * Trace recording and replay.
 *
 * The paper drives its simulator from Pin-captured SPEC traces.  Users
 * with their own instruction traces can replay them through this
 * module instead of the synthetic generators, and any TraceSource
 * (including the synthetic ones) can be recorded to a file for exact
 * cross-tool reproduction.
 *
 * Format: a small text header ("silctrace 1") followed by one record
 * per line —
 *
 *     M <r|w> <vaddr hex> <pc hex>     memory instruction
 *     N <count>                        run of non-memory instructions
 *
 * Runs of non-memory instructions are run-length encoded, which keeps
 * SPEC-like traces (~70% non-memory) compact and human-greppable.
 */

#ifndef SILC_TRACE_FILE_TRACE_HH
#define SILC_TRACE_FILE_TRACE_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "trace/generator.hh"

namespace silc {
namespace trace {

/** Writes a TraceSource's stream to a file. */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal() on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one instruction. */
    void append(const TraceInstruction &ins);

    /** Record @p count instructions pulled from @p source. */
    void record(TraceSource &source, uint64_t count);

    /** Flush pending state (also done by the destructor). */
    void finish();

    uint64_t instructionsWritten() const { return written_; }

  private:
    void flushRun();

    std::ofstream out_;
    std::string path_;
    uint64_t pending_nonmem_ = 0;
    uint64_t written_ = 0;
    bool finished_ = false;
};

/**
 * Replays a recorded trace file as a TraceSource.
 *
 * Cores need an infinite stream; by default the reader rewinds and
 * replays from the beginning when it reaches the end (SPEC rate-mode
 * style), counting the wraps.
 */
class FileTraceReader : public TraceSource
{
  public:
    /** Open @p path; fatal() on missing file or bad header. */
    explicit FileTraceReader(const std::string &path);

    TraceInstruction next() override;

    /**
     * Checkpoint the stream position (file offset plus the staged
     * record).  A checkpoint is read into a reader opened on the same
     * trace file.
     */
    void checkpoint(Blob &b) override;

    /** Instructions delivered so far. */
    uint64_t delivered() const { return delivered_; }

    /** Times the trace wrapped back to the beginning. */
    uint64_t wraps() const { return wraps_; }

  private:
    /** Refill the current record from the file, wrapping at EOF. */
    void refill();

    std::ifstream in_;
    std::string path_;
    std::streampos body_start_;

    // Current record state.
    uint64_t nonmem_left_ = 0;
    bool have_mem_ = false;
    TraceInstruction mem_;

    uint64_t delivered_ = 0;
    uint64_t wraps_ = 0;
};

} // namespace trace
} // namespace silc

#endif // SILC_TRACE_FILE_TRACE_HH
