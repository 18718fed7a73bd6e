#include "trace/file_trace.hh"

#include <cinttypes>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace trace {

namespace {

constexpr const char *kMagic = "silctrace 1";

} // namespace

// ---- TraceWriter ---------------------------------------------------------

TraceWriter::TraceWriter(const std::string &path)
    : out_(path), path_(path)
{
    if (!out_)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    out_ << kMagic << "\n";
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::flushRun()
{
    if (pending_nonmem_ > 0) {
        out_ << "N " << pending_nonmem_ << "\n";
        pending_nonmem_ = 0;
    }
}

void
TraceWriter::append(const TraceInstruction &ins)
{
    silc_assert(!finished_);
    if (!ins.is_mem) {
        ++pending_nonmem_;
    } else {
        flushRun();
        out_ << "M " << (ins.is_write ? 'w' : 'r') << ' ' << std::hex
             << ins.vaddr << ' ' << ins.pc << std::dec << "\n";
    }
    ++written_;
}

void
TraceWriter::record(TraceSource &source, uint64_t count)
{
    for (uint64_t i = 0; i < count; ++i)
        append(source.next());
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    flushRun();
    out_.flush();
    if (!out_)
        fatal("error writing trace file '%s'", path_.c_str());
    finished_ = true;
}

// ---- FileTraceReader --------------------------------------------------------

FileTraceReader::FileTraceReader(const std::string &path)
    : in_(path), path_(path)
{
    if (!in_)
        fatal("cannot open trace file '%s'", path.c_str());
    std::string header;
    std::getline(in_, header);
    if (header != kMagic)
        fatal("'%s' is not a silctrace file (bad header)", path.c_str());
    body_start_ = in_.tellg();
    refill();
}

void
FileTraceReader::refill()
{
    while (true) {
        std::string tag;
        if (!(in_ >> tag)) {
            // EOF: wrap to the start of the body.
            in_.clear();
            in_.seekg(body_start_);
            ++wraps_;
            if (!(in_ >> tag))
                fatal("trace file '%s' has no records", path_.c_str());
        }
        if (tag == "N") {
            uint64_t count = 0;
            if (!(in_ >> count) || count == 0)
                fatal("trace file '%s': malformed N record",
                      path_.c_str());
            nonmem_left_ = count;
            have_mem_ = false;
            return;
        }
        if (tag == "M") {
            char rw = 0;
            uint64_t vaddr = 0, pc = 0;
            if (!(in_ >> rw >> std::hex >> vaddr >> pc >> std::dec) ||
                (rw != 'r' && rw != 'w')) {
                fatal("trace file '%s': malformed M record",
                      path_.c_str());
            }
            mem_ = TraceInstruction{true, rw == 'w', vaddr, pc};
            have_mem_ = true;
            nonmem_left_ = 0;
            return;
        }
        fatal("trace file '%s': unknown record tag '%s'", path_.c_str(),
              tag.c_str());
    }
}

TraceInstruction
FileTraceReader::next()
{
    ++delivered_;
    if (nonmem_left_ > 0) {
        if (--nonmem_left_ == 0)
            refill();
        return TraceInstruction{};
    }
    silc_assert(have_mem_);
    const TraceInstruction out = mem_;
    refill();
    return out;
}

void
FileTraceReader::checkpoint(Blob &b)
{
    // tellg() on a good stream is non-destructive; the stream stays
    // positioned where refill() left it.
    int64_t off = b.reading() ? 0 : static_cast<int64_t>(in_.tellg());
    if (off < 0)
        fatal("trace file '%s': cannot checkpoint (tellg failed)",
              path_.c_str());
    b.i64(off);
    if (b.reading()) {
        in_.clear();
        in_.seekg(off);
        if (!in_)
            fatal("trace file '%s': cannot restore checkpoint offset %lld",
                  path_.c_str(), static_cast<long long>(off));
    }
    b.u64(nonmem_left_);
    b.flag(have_mem_);
    b.flag(mem_.is_mem);
    b.flag(mem_.is_write);
    b.u64(mem_.vaddr);
    b.u64(mem_.pc);
    b.u64(delivered_);
    b.u64(wraps_);
}

} // namespace trace
} // namespace silc
