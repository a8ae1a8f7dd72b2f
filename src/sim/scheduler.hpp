/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * CACTUS-Light models the microarchitecture at transaction level
 * (Section 6.4.1); we adopt the same methodology: every architectural unit
 * schedules callbacks on a single global Scheduler whose time base is the
 * 250 MHz TCU clock (1 tick == 1 cycle == 4 ns).
 *
 * Determinism: events at the same cycle fire in schedule order (a strictly
 * increasing sequence number breaks ties), so a given program + seed always
 * produces the same trace.
 *
 * Hot-path design (reworked for the sweep harness, which runs thousands of
 * points per process):
 *
 *  - Callback state lives in a slot pool ("buckets"): each pending event
 *    owns one slot holding its sim::Callback (small-buffer, no per-event
 *    heap allocation for ordinary captures) plus a generation counter.
 *  - The priority queue is a 4-ary min-heap of 24-byte POD entries
 *    {when, seq, slot, generation}; sift operations move PODs, never
 *    callbacks.
 *  - cancel() is O(1): it validates the id's generation against the slot,
 *    destroys the callback and recycles the slot immediately. The heap
 *    entry stays behind and is discarded on pop by a single generation
 *    compare — there is no cancelled-id list to scan, so cancel-heavy
 *    workloads (one outstanding sync guard per controller) stay linear.
 *
 * EventId packs (slot index << 32 | generation); generations start at 1 so
 * the kNoEvent sentinel 0 is never produced, and a stale id (slot since
 * recycled, or scheduler reset) simply fails the generation compare, which
 * keeps "cancel after fire is a harmless no-op" true by construction.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"
#include "sim/callback.hpp"

namespace dhisq::sim {

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/** Sentinel event id. */
inline constexpr EventId kNoEvent = 0;

/** Deterministic discrete-event scheduler. */
class Scheduler
{
  public:
    using Callback = sim::Callback;

    Scheduler() = default;
    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Current simulation time in cycles. */
    Cycle now() const { return _now; }

    /**
     * Schedule `cb` to run at absolute cycle `when` (>= now()).
     * @return an id usable with cancel().
     */
    EventId
    schedule(Cycle when, Callback cb)
    {
        DHISQ_ASSERT(when >= _now, "scheduling event in the past: when=",
                     when, " now=", _now);
        const std::uint32_t slot = acquireSlot();
        _slots[slot].cb = std::move(cb);
        heapPush({when, ++_next_seq, slot, _slots[slot].generation});
        ++_pending;
        return makeId(slot, _slots[slot].generation);
    }

    /** Schedule `cb` after `delay` cycles. */
    EventId
    scheduleIn(Cycle delay, Callback cb)
    {
        return schedule(_now + delay, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event in O(1). Cancelling an
     * already-fired or already-cancelled event is a harmless no-op.
     */
    void
    cancel(EventId id)
    {
        const std::uint32_t slot = slotOf(id);
        if (id == kNoEvent || slot >= _slots.size() ||
            _slots[slot].generation != generationOf(id)) {
            return;
        }
        _slots[slot].cb.reset();
        releaseSlot(slot);
        --_pending;
    }

    /** True if no runnable events remain. */
    bool idle() const { return _pending == 0; }

    /** Number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Runnable (scheduled, not yet fired or cancelled) events. */
    std::uint64_t pending() const { return _pending; }

    /**
     * Run a single event.
     * @return false when the queue is empty.
     */
    bool step();

    /**
     * Run until the queue drains or `limit` cycles is exceeded.
     * @return the final simulation time.
     */
    Cycle run(Cycle limit = kNoCycle);

    /** Reset time and drop all pending events. */
    void reset();

  private:
    /** POD heap entry; the callback stays in its slot. */
    struct HeapEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;

        bool
        before(const HeapEntry &other) const
        {
            if (when != other.when)
                return when < other.when;
            return seq < other.seq;
        }
    };

    /** One pending event's state. Generation 0 is never issued. */
    struct Slot
    {
        Callback cb;
        std::uint32_t generation = 1;
    };

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        return (EventId(slot) << 32) | EventId(generation);
    }
    static std::uint32_t slotOf(EventId id)
    {
        return std::uint32_t(id >> 32);
    }
    static std::uint32_t generationOf(EventId id)
    {
        return std::uint32_t(id);
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);

    void heapPush(HeapEntry entry);
    void heapPopMin();
    /** Drop heap entries whose slot generation moved on (cancelled). */
    void dropStaleTop();

    /** True when the entry's slot generation moved on (cancelled). */
    bool
    stale(const HeapEntry &entry) const
    {
        return _slots[entry.slot].generation != entry.generation;
    }

    /** Pop `entry`'s callback and invoke it at its timestamp. */
    void dispatch(const HeapEntry &entry);

    std::vector<HeapEntry> _heap; ///< 4-ary min-heap ordered by (when, seq).
    std::vector<Slot> _slots;
    std::vector<std::uint32_t> _free_slots;
    Cycle _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _pending = 0;
    std::uint64_t _executed = 0;
};

} // namespace dhisq::sim
