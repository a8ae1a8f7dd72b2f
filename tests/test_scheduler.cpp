/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * cancellation, run limits, the slot-pool id lifecycle, the cancel-heavy
 * stress path, a seeded random-workload property test and the
 * small-buffer callback type.
 */
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/scheduler.hpp"

namespace dhisq::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder)
{
    Scheduler s;
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SameCycleFiresInScheduleOrder)
{
    Scheduler s;
    std::vector<int> order;
    s.schedule(5, [&] { order.push_back(1); });
    s.schedule(5, [&] { order.push_back(2); });
    s.schedule(5, [&] { order.push_back(3); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EventsMayScheduleMoreEvents)
{
    Scheduler s;
    int fired = 0;
    s.schedule(1, [&] {
        ++fired;
        s.scheduleIn(4, [&] { ++fired; });
    });
    s.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 5u);
}

TEST(Scheduler, CancelPreventsExecution)
{
    Scheduler s;
    int fired = 0;
    const EventId id = s.schedule(10, [&] { ++fired; });
    s.schedule(5, [&] { s.cancel(id); });
    s.run();
    EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelAfterFireIsHarmless)
{
    Scheduler s;
    int fired = 0;
    const EventId id = s.schedule(1, [&] { ++fired; });
    s.run();
    s.cancel(id); // no-op
    EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunWithLimitStopsBeforeLaterEvents)
{
    Scheduler s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(100, [&] { ++fired; });
    s.run(50);
    EXPECT_EQ(fired, 1);
    // Remaining event still runs afterwards.
    s.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 100u);
}

TEST(Scheduler, ExecutedCountsOnlyRealEvents)
{
    Scheduler s;
    const EventId id = s.schedule(2, [] {});
    s.schedule(3, [] {});
    s.cancel(id);
    s.run();
    EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, SameCycleScheduledFromEventRunsThisCycle)
{
    Scheduler s;
    std::vector<int> order;
    s.schedule(7, [&] {
        order.push_back(1);
        s.scheduleIn(0, [&] { order.push_back(2); });
    });
    s.schedule(7, [&] { order.push_back(3); });
    s.run();
    // The zero-delay event lands after already-queued same-cycle events.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(s.now(), 7u);
}

TEST(Scheduler, ResetDropsPendingEvents)
{
    Scheduler s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.reset();
    s.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(s.now(), 0u);
}

TEST(Scheduler, StaleIdAfterResetCannotCancelNewEvent)
{
    Scheduler s;
    int fired = 0;
    const EventId stale = s.schedule(10, [&] { ++fired; });
    s.reset();
    // The recycled slot may be handed to the new event; the stale id's
    // generation must not match it.
    s.schedule(5, [&] { ++fired; });
    s.cancel(stale);
    s.run();
    EXPECT_EQ(fired, 1);
}

TEST(Scheduler, StaleIdAfterFireCannotCancelSlotReuse)
{
    Scheduler s;
    int fired = 0;
    const EventId first = s.schedule(1, [&] { ++fired; });
    s.run();
    // The slot of `first` is free again; the next event likely reuses it.
    s.schedule(2, [&] { ++fired; });
    s.cancel(first); // must be a no-op, not kill the new event
    s.run();
    EXPECT_EQ(fired, 2);
}

TEST(Scheduler, DoubleCancelIsHarmless)
{
    Scheduler s;
    int fired = 0;
    const EventId id = s.schedule(10, [&] { ++fired; });
    s.schedule(10, [&] { ++fired; });
    s.cancel(id);
    s.cancel(id);
    s.cancel(kNoEvent);
    s.cancel(EventId(0xFFFF) << 32); // out-of-range slot
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, IdleTracksCancellation)
{
    Scheduler s;
    const EventId id = s.schedule(10, [] {});
    EXPECT_FALSE(s.idle());
    s.cancel(id);
    EXPECT_TRUE(s.idle());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(s.executed(), 0u);
}

/**
 * The satellite stress test: schedule/cancel 100k events and assert the
 * executed() count and the ordering invariants survive a cancel-heavy
 * interleaving (the pattern that was O(pending) per pop before the
 * slot-pool rework).
 */
TEST(Scheduler, CancelHeavyStress100k)
{
    constexpr int kEvents = 100000;
    Scheduler s;
    std::vector<EventId> guards;
    guards.reserve(kEvents);
    std::uint64_t guard_fired = 0;
    for (int i = 0; i < kEvents; ++i) {
        guards.push_back(s.schedule(Cycle(1000000 + i),
                                    [&guard_fired] { ++guard_fired; }));
    }
    // Foreground events cancel their guard; every third guard survives.
    std::uint64_t foreground_fired = 0;
    Cycle last_when = 0;
    bool ordered = true;
    for (int i = 0; i < kEvents; ++i) {
        s.schedule(Cycle(i), [&, i] {
            ++foreground_fired;
            ordered = ordered && s.now() >= last_when &&
                      s.now() == Cycle(i);
            last_when = s.now();
            if (i % 3 != 0)
                s.cancel(guards[std::size_t(i)]);
        });
    }
    s.run();
    EXPECT_TRUE(ordered);
    EXPECT_EQ(foreground_fired, std::uint64_t(kEvents));
    // Guards at i % 3 == 0 survive: ceil(100000 / 3).
    EXPECT_EQ(guard_fired, std::uint64_t((kEvents + 2) / 3));
    EXPECT_EQ(s.executed(), foreground_fired + guard_fired);
    EXPECT_TRUE(s.idle());
    // The last surviving guard is i = 99999 (divisible by 3).
    EXPECT_EQ(s.now(), Cycle(1000000 + kEvents - 1));
}

/**
 * Seeded self-scheduling workload: every fired event spawns children at
 * random delays (delay 0 included, for same-cycle ties) and cancels random
 * ids, pending or already fired. The LCG draws happen inside callbacks, so
 * the whole run depends on the dispatch order. Labels are handed out in
 * schedule order, so same-cycle events must fire with increasing labels.
 */
struct RandomWorkload
{
    Scheduler sched;
    std::uint64_t rng;
    bool cancel_heavy;
    std::vector<EventId> ids;    ///< By label.
    std::vector<Cycle> when;     ///< By label.
    std::vector<bool> fired;     ///< By label.
    std::vector<bool> cancelled; ///< By label: cancelled while pending.
    std::uint64_t fired_count = 0;
    Cycle last_now = 0;
    std::size_t last_label = 0;
    bool ordered = true;
    bool on_time = true;
    bool fired_cancelled = false;

    RandomWorkload(std::uint64_t seed, bool heavy)
        : rng(seed * 0x9E3779B97F4A7C15ull + 1), cancel_heavy(heavy)
    {
    }

    std::uint64_t
    draw(std::uint64_t bound)
    {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return (rng >> 33) % bound;
    }

    void
    spawn(Cycle at, unsigned depth)
    {
        const std::size_t label = ids.size();
        when.push_back(at);
        fired.push_back(false);
        cancelled.push_back(false);
        ids.push_back(sched.schedule(at, [this, label, depth] {
            onFire(label, depth);
        }));
    }

    void
    onFire(std::size_t label, unsigned depth)
    {
        fired_cancelled = fired_cancelled || cancelled[label];
        on_time = on_time && sched.now() == when[label];
        if (fired_count > 0) {
            ordered = ordered && sched.now() >= last_now &&
                      (sched.now() > last_now || label > last_label);
        }
        fired[label] = true;
        ++fired_count;
        last_now = sched.now();
        last_label = label;
        if (depth > 0) {
            const std::uint64_t children = draw(3);
            for (std::uint64_t c = 0; c < children; ++c)
                spawn(sched.now() + Cycle(draw(16)), depth - 1);
        }
        const std::uint64_t cancels = cancel_heavy ? 1 + draw(3) : draw(2);
        for (std::uint64_t c = 0; c < cancels; ++c) {
            const std::size_t victim = draw(ids.size());
            if (!fired[victim])
                cancelled[victim] = true;
            sched.cancel(ids[victim]);
        }
    }
};

TEST(Scheduler, SeededRandomWorkloadKeepsOrderingInvariants)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u}) {
        for (const bool heavy : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " heavy=" << heavy);
            RandomWorkload w(seed, heavy);
            for (int e = 0; e < 30; ++e)
                w.spawn(Cycle(w.draw(200)), 4);
            w.sched.run();

            EXPECT_TRUE(w.ordered);
            EXPECT_TRUE(w.on_time);
            EXPECT_FALSE(w.fired_cancelled);
            EXPECT_EQ(w.sched.executed(), w.fired_count);
            EXPECT_TRUE(w.sched.idle());
            // Every event either fired or was cancelled while pending.
            std::uint64_t cancelled = 0;
            for (std::size_t l = 0; l < w.ids.size(); ++l) {
                EXPECT_NE(bool(w.fired[l]), bool(w.cancelled[l])) << "label " << l;
                cancelled += w.cancelled[l] ? 1 : 0;
            }
            // The workload is not trivial: events spawned children, some
            // fired and some were cancelled while pending.
            EXPECT_GT(w.ids.size(), 30u);
            EXPECT_GT(w.fired_count, 0u);
            EXPECT_GT(cancelled, 0u);
        }
    }
}

TEST(Scheduler, ManySameCycleEventsKeepScheduleOrder)
{
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i)
        s.schedule(42, [&order, i] { order.push_back(i); });
    s.run();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Scheduler, LargeCaptureCallbacksWork)
{
    // Bigger than Callback::kInlineSize: exercises the heap fallback.
    std::array<std::uint64_t, 32> payload{};
    payload[0] = 7;
    payload[31] = 9;
    Scheduler s;
    std::uint64_t sum = 0;
    s.schedule(1, [payload, &sum] { sum = payload[0] + payload[31]; });
    s.run();
    EXPECT_EQ(sum, 16u);
}

TEST(Callback, InlineAndHeapLifecycle)
{
    // Inline path.
    int hits = 0;
    Callback small([&hits] { ++hits; });
    EXPECT_TRUE(bool(small));
    small();
    EXPECT_EQ(hits, 1);

    // Move transfers the callable.
    Callback moved(std::move(small));
    moved();
    EXPECT_EQ(hits, 2);
    EXPECT_FALSE(bool(small)); // NOLINT: post-move state is specified

    // Heap path with a destructor-tracking capture.
    auto token = std::make_shared<int>(5);
    std::weak_ptr<int> watch = token;
    std::array<char, 200> ballast{};
    {
        Callback big([token, ballast, &hits] {
            hits += *token + int(ballast.size()) / 100;
        });
        token.reset();
        EXPECT_FALSE(watch.expired());
        big();
        EXPECT_EQ(hits, 9);

        Callback big2(std::move(big));
        big2();
        EXPECT_EQ(hits, 16);
    } // both wrappers destroyed
    EXPECT_TRUE(watch.expired());
}

TEST(Callback, MoveAssignReleasesPrevious)
{
    auto a = std::make_shared<int>(1);
    std::weak_ptr<int> watch_a = a;
    Callback cb([a] { (void)a; });
    a.reset();
    EXPECT_FALSE(watch_a.expired());
    cb = Callback([] {});
    EXPECT_TRUE(watch_a.expired()); // old capture destroyed on assign
    cb();
    cb.reset();
    EXPECT_FALSE(bool(cb));
}

} // namespace
} // namespace dhisq::sim
