#include "sim/scheduler.hpp"

#include <algorithm>

namespace dhisq::sim {

namespace {
/** Heap arity: 4-ary trades a shallower tree for a few extra compares,
 *  which wins for POD entries that fit two per cache line. */
constexpr std::size_t kArity = 4;
} // namespace

std::uint32_t
Scheduler::acquireSlot()
{
    if (!_free_slots.empty()) {
        const std::uint32_t slot = _free_slots.back();
        _free_slots.pop_back();
        return slot;
    }
    DHISQ_ASSERT(_slots.size() < UINT32_MAX, "slot pool exhausted");
    _slots.emplace_back();
    return std::uint32_t(_slots.size() - 1);
}

void
Scheduler::releaseSlot(std::uint32_t slot)
{
    // Bump the generation so every outstanding id for this slot goes
    // stale; skip 0 so makeId never returns the kNoEvent sentinel.
    if (++_slots[slot].generation == 0)
        _slots[slot].generation = 1;
    _free_slots.push_back(slot);
}

void
Scheduler::heapPush(HeapEntry entry)
{
    _heap.push_back(entry);
    std::size_t i = _heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!_heap[i].before(_heap[parent]))
            break;
        std::swap(_heap[i], _heap[parent]);
        i = parent;
    }
}

void
Scheduler::heapPopMin()
{
    _heap.front() = _heap.back();
    _heap.pop_back();
    const std::size_t n = _heap.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first_child = i * kArity + 1;
        if (first_child >= n)
            break;
        std::size_t best = first_child;
        const std::size_t last_child =
            std::min(first_child + kArity, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (_heap[c].before(_heap[best]))
                best = c;
        }
        if (!_heap[best].before(_heap[i]))
            break;
        std::swap(_heap[i], _heap[best]);
        i = best;
    }
}

void
Scheduler::dropStaleTop()
{
    while (!_heap.empty() && stale(_heap.front()))
        heapPopMin();
}

void
Scheduler::dispatch(const HeapEntry &entry)
{
    DHISQ_ASSERT(entry.when >= _now, "time went backwards");
    _now = entry.when;
    ++_executed;
    --_pending;
    // Move the callback out and recycle the slot *before* invoking:
    // the callback may schedule new events (reusing this slot) or
    // cancel its own id (now stale, so a no-op).
    Callback cb = std::move(_slots[entry.slot].cb);
    releaseSlot(entry.slot);
    cb();
}

bool
Scheduler::step()
{
    dropStaleTop();
    if (_heap.empty())
        return false;
    const HeapEntry top = _heap.front();
    heapPopMin();
    dispatch(top);
    return true;
}

Cycle
Scheduler::run(Cycle limit)
{
    for (;;) {
        dropStaleTop();
        if (_heap.empty() || _heap.front().when > limit)
            break;
        step();
    }
    return _now;
}

void
Scheduler::reset()
{
    _heap.clear();
    _free_slots.clear();
    // Recycle every slot; the generation bump strands any outstanding ids
    // so stale handles can never collide after reset.
    for (std::uint32_t slot = 0; slot < _slots.size(); ++slot) {
        _slots[slot].cb.reset();
        releaseSlot(slot);
    }
    _now = 0;
    _pending = 0;
}

} // namespace dhisq::sim
