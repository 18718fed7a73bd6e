#include "common/event_queue.hh"

#include <algorithm>
#include <cinttypes>

#include "common/logging.hh"

namespace silc {

namespace {

/** Enough for a typical in-flight window; grows geometrically after. */
constexpr size_t kInitialCapacity = 256;

} // namespace

uint32_t
EventQueue::park(EventCallback cb)
{
    if (!free_.empty()) {
        const uint32_t slot = free_.back();
        free_.pop_back();
        slab_[slot] = std::move(cb);
        return slot;
    }
    if (slab_.capacity() == 0)
        slab_.reserve(kInitialCapacity);
    slab_.push_back(std::move(cb));
    return static_cast<uint32_t>(slab_.size() - 1);
}

void
EventQueue::schedule(Tick when, uint32_t parked)
{
    if (when < last_run_tick_) {
        panic("scheduling event in the past (when=%" PRIu64
              ", now=%" PRIu64 ")", when, last_run_tick_);
    }
    if (heap_.capacity() == 0)
        heap_.reserve(kInitialCapacity);
    heap_.push_back(Entry{when, next_seq_++, parked});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

size_t
EventQueue::runDueSlow(Tick now)
{
    last_run_tick_ = now;
    size_t count = 0;
    while (!heap_.empty() && heap_.front().when <= now) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Entry entry = heap_.back();
        heap_.pop_back();
        // Move the callback out before running it: it may park or
        // schedule, which can reuse its slot or grow the slab.
        EventCallback cb = std::move(slab_[entry.slot]);
        free_.push_back(entry.slot);
        cb(entry.when);
        ++count;
        ++executed_;
    }
    return count;
}

Tick
EventQueue::nextEventTick() const
{
    return heap_.empty() ? kTickNever : heap_.front().when;
}

} // namespace silc
