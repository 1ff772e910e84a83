/**
 * @file
 * Tests for the fleet orchestrator: the QoS-aware shared queue and
 * FleetOrchestrator itself — above all that every session's decision
 * log stays bit-identical to a standalone ReadUntilSession::run()
 * regardless of fleet size, worker count, QoS class or backpressure,
 * that Stat preempts Research without starving it, and that admission
 * control throttles instead of dropping.
 *
 * The QosQueueTest cases are sub-second and carry the `quick` label;
 * the FleetTest cases run real flowcell fleets under the `stream`
 * label (one process under TSan, see CMakeLists).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "fleet/orchestrator.hpp"
#include "fleet/qos_queue.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/filter.hpp"
#include "stream/fault_plan.hpp"
#include "stream/session.hpp"

namespace sf::fleet {
namespace {

// Same TSan compute-shrink policy as tests/test_stream.cpp: every
// DP-cell access is instrumented under ThreadSanitizer, so shrink the
// fixture *compute* (reads, stages, fleet matrix) while keeping the
// *concurrency* (shared queue, QoS interleaving, worker contention)
// at full strength.  Every assertion is an internal-consistency pin
// (fleet vs standalone), so it holds at any scale.
#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kCalibrationReads = 4;
constexpr std::size_t kReadsPerSession = 4;
constexpr int kChannels = 4;
constexpr std::size_t kStages = 4;
constexpr std::size_t kMaxFleet = 2;
// Race coverage wants contention, not matrix breadth: the Release
// build sweeps the full fleet-size x worker-count determinism matrix,
// so under TSan only the most contended cell runs — every
// synchronization edge (shared queue, QoS classes, multi-worker
// folds, concurrent snapshots) is still exercised.
const std::vector<std::size_t> kFleetSizes = {kMaxFleet};
const std::vector<unsigned> kWorkerCounts = {4};
constexpr std::size_t kStatReadsFactor = 2;
constexpr std::size_t kOracleSessions = 1;
#else
constexpr std::size_t kCalibrationReads = 40;
constexpr std::size_t kReadsPerSession = 16;
constexpr int kChannels = 4;
constexpr std::size_t kStages = 9;
constexpr std::size_t kMaxFleet = 4;
const std::vector<std::size_t> kFleetSizes = {1, 2, kMaxFleet};
const std::vector<unsigned> kWorkerCounts = {1, 4, 8};
constexpr std::size_t kStatReadsFactor = 3;
constexpr std::size_t kOracleSessions = 2;
#endif

// ---------------------------------------------------------------- //
//                      QoS queue (quick label)                      //
// ---------------------------------------------------------------- //

/** Minimal queue payload: QosBoundedQueue needs only .sessionId. */
struct Item
{
    std::uint32_t sessionId = 0;
    int value = 0;
};

TEST(QosQueueTest, StatDispatchesBeforeQueuedResearch)
{
    QosBoundedQueue<Item> queue(16, /*statBurst=*/4);
    const auto research = queue.registerSession(QosClass::Research, 0);
    const auto stat = queue.registerSession(QosClass::Stat, 0);

    // Research arrives first, Stat after — Stat still dispatches
    // first, and dispatches are class-pure.
    ASSERT_TRUE(queue.push(research, Item{research, 1}));
    ASSERT_TRUE(queue.push(research, Item{research, 2}));
    ASSERT_TRUE(queue.push(stat, Item{stat, 3}));

    std::vector<Item> batch;
    QosClass served = QosClass::Research;
    ASSERT_TRUE(queue.popBatch(batch, 8, &served));
    EXPECT_EQ(served, QosClass::Stat);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].value, 3);

    batch.clear();
    ASSERT_TRUE(queue.popBatch(batch, 8, &served));
    EXPECT_EQ(served, QosClass::Research);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].value, 1); // FIFO within the class
    EXPECT_EQ(batch[1].value, 2);
}

TEST(QosQueueTest, ResearchStarvationIsBoundedByStatBurst)
{
    constexpr std::size_t kBurst = 2;
    QosBoundedQueue<Item> queue(64, kBurst);
    const auto stat = queue.registerSession(QosClass::Stat, 0);
    const auto research = queue.registerSession(QosClass::Research, 0);

    // Both classes saturated: Research must be served at least every
    // kBurst+1 dispatches even though Stat never runs dry.
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(queue.push(stat, Item{stat, i}));
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, 100 + i}));

    std::vector<QosClass> order;
    std::vector<Item> batch;
    QosClass served = QosClass::Research;
    // Single-item dispatches expose the exact interleaving.
    while (queue.size() > 0) {
        batch.clear();
        ASSERT_TRUE(queue.popBatch(batch, 1, &served));
        order.push_back(served);
    }
    std::size_t stat_streak = 0;
    std::size_t research_seen = 0;
    for (QosClass cls : order) {
        if (cls == QosClass::Stat) {
            ++stat_streak;
            // The bound applies while Research work is waiting; once
            // the Research queue drains, Stat may streak freely.
            if (research_seen < 4) {
                EXPECT_LE(stat_streak, kBurst)
                    << "research starved past the statBurst bound";
            }
        } else {
            stat_streak = 0;
            ++research_seen;
        }
    }
    EXPECT_EQ(research_seen, 4u);
}

TEST(QosQueueTest, AdmissionQuotaBlocksUntilDispatchFreesIt)
{
    QosBoundedQueue<Item> queue(16, 4);
    const auto s = queue.registerSession(QosClass::Research, /*quota=*/1);

    ASSERT_TRUE(queue.push(s, Item{s, 1}));
    EXPECT_EQ(queue.depth(s), 1u);

    // Second push exceeds the quota: it must block (throttle), not
    // drop, and complete once a dispatch frees the slot.
    std::atomic<bool> pushed{false};
    std::thread pusher([&] {
        ASSERT_TRUE(queue.push(s, Item{s, 2}));
        pushed.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(pushed.load(std::memory_order_acquire))
        << "push over quota must block";

    std::vector<Item> batch;
    ASSERT_TRUE(queue.popBatch(batch, 8, nullptr));
    pusher.join();
    EXPECT_TRUE(pushed.load(std::memory_order_acquire));
    EXPECT_EQ(queue.depth(s), 1u); // item 2 queued now
    batch.clear();
    ASSERT_TRUE(queue.popBatch(batch, 8, nullptr));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].value, 2);
    EXPECT_EQ(queue.depth(s), 0u);
}

TEST(QosQueueTest, TryPopTakesUpToABatchUnlessAWorkerIsIdle)
{
    constexpr std::size_t kBatch = 4;
    QosBoundedQueue<Item> queue(16, /*statBurst=*/1);
    const auto stat = queue.registerSession(QosClass::Stat, 0);
    const auto research = queue.registerSession(QosClass::Research, 0);
    std::vector<Item> batch;
    std::vector<Item> worker_batch;
    QosClass served = QosClass::Research;

    // An empty queue has nothing to help with.
    EXPECT_FALSE(queue.tryPopBatch(batch, kBatch, &served));
    EXPECT_TRUE(batch.empty());

    // Three Stat items, fewer than a batch, and no idle worker: a
    // helper takes all three, from the head of the class.
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(queue.push(stat, Item{stat, i}));
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, 100 + i}));
    ASSERT_TRUE(queue.tryPopBatch(batch, kBatch, &served));
    EXPECT_EQ(served, QosClass::Stat);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].value, 0);
    EXPECT_EQ(batch[1].value, 1);
    EXPECT_EQ(batch[2].value, 2);

    // The helper's dispatch counts toward the starvation streak like
    // a worker's: with statBurst 1 the next dispatch is Research,
    // though Stat has work queued again.
    ASSERT_TRUE(queue.push(stat, Item{stat, 3}));
    ASSERT_TRUE(queue.popBatch(worker_batch, kBatch, &served));
    EXPECT_EQ(served, QosClass::Research);
    ASSERT_EQ(worker_batch.size(), kBatch);
    EXPECT_EQ(worker_batch[0].value, 100);

    // And the other way round: after a worker's Stat dispatch the
    // helper serves Research, a full batch from the head.
    worker_batch.clear();
    ASSERT_TRUE(queue.popBatch(worker_batch, kBatch, &served));
    EXPECT_EQ(served, QosClass::Stat);
    batch.clear();
    ASSERT_TRUE(queue.tryPopBatch(batch, kBatch, &served));
    EXPECT_EQ(served, QosClass::Research);
    ASSERT_EQ(batch.size(), kBatch);
    EXPECT_EQ(batch[0].value, 104);
    EXPECT_EQ(queue.size(), 0u);

    // A worker waiting in popBatch (here: lingering for a batch of
    // 64) is idle: the queued work is its to fold, not a helper's,
    // though a helper would take it were the worker busy.
    ASSERT_TRUE(queue.push(stat, Item{stat, 4}));
    ASSERT_TRUE(queue.push(stat, Item{stat, 5}));
    batch.clear();
    worker_batch.clear();
    std::thread worker([&] {
        EXPECT_TRUE(queue.popBatch(worker_batch, 64, nullptr,
                                   std::chrono::seconds(30)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(queue.tryPopBatch(batch, kBatch, &served));
    queue.close(); // ends the linger
    worker.join();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(worker_batch.size(), 2u);
}

TEST(QosQueueTest, RefusedPushCountsOneStallHoweverOftenItRetries)
{
    using Push = QosBoundedQueue<Item>::PushResult;
    QosBoundedQueue<Item> queue(2, 4);
    const auto s = queue.registerSession(QosClass::Stat, 0);
    Item item{s, 7};
    ASSERT_EQ(queue.tryPush(s, item, false), Push::Pushed);
    ASSERT_EQ(queue.tryPush(s, item, false), Push::Pushed);

    // Full: the first refusal is the stall, the retries are not.
    EXPECT_EQ(queue.tryPush(s, item, false), Push::Refused);
    EXPECT_EQ(queue.tryPush(s, item, true), Push::Refused);
    EXPECT_EQ(queue.tryPush(s, item, true), Push::Refused);
    EXPECT_EQ(queue.stalls(s), 1u);

    // The blocking push that ends the retries counts nothing more.
    std::thread pusher(
        [&] { EXPECT_TRUE(queue.push(s, item, /*stalled=*/true)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<Item> batch;
    ASSERT_TRUE(queue.popBatch(batch, 1, nullptr));
    pusher.join();
    EXPECT_EQ(queue.stalls(s), 1u);
    EXPECT_EQ(queue.totalStalls(), 1u);

    // A fresh push that blocks counts its own stall; closed refuses.
    std::thread blocked([&] { EXPECT_TRUE(queue.push(s, Item{s, 8})); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    batch.clear();
    ASSERT_TRUE(queue.popBatch(batch, 1, nullptr));
    blocked.join();
    EXPECT_EQ(queue.stalls(s), 2u);
    queue.close();
    EXPECT_EQ(queue.tryPush(s, item, false), Push::Closed);
    EXPECT_EQ(queue.stalls(s), 2u);
}

TEST(QosQueueTest, CloseWakesBlockedProducerAndDrainsConsumers)
{
    QosBoundedQueue<Item> queue(1, 4);
    const auto s = queue.registerSession(QosClass::Stat, 0);
    ASSERT_TRUE(queue.push(s, Item{s, 1})); // at capacity

    std::atomic<bool> refused{false};
    std::thread pusher([&] {
        // Blocks on capacity; close() must wake it with false.
        refused.store(!queue.push(s, Item{s, 2}),
                      std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queue.close();
    pusher.join();
    EXPECT_TRUE(refused.load(std::memory_order_acquire));

    // Consumers drain what was queued, then see false.
    std::vector<Item> batch;
    EXPECT_TRUE(queue.popBatch(batch, 8, nullptr));
    ASSERT_EQ(batch.size(), 1u);
    batch.clear();
    EXPECT_FALSE(queue.popBatch(batch, 8, nullptr));
}

TEST(QosQueueTest, LingerExpiryOnDrainedOpenQueueKeepsWorkerAlive)
{
    // Regression: a lingering worker whose deadline expires after a
    // concurrent worker drained the (still open) queue must go back
    // to waiting for work, not return false — a false return here
    // permanently retires the worker's dispatch loop and silently
    // degrades the pool.
    QosBoundedQueue<Item> queue(8, 4);
    const auto s = queue.registerSession(QosClass::Research, 0);
    constexpr auto kLinger = std::chrono::milliseconds(100);

    std::vector<Item> dispatched;
    std::thread worker([&] {
        std::vector<Item> batch;
        while (queue.popBatch(batch, 4, nullptr, kLinger)) {
            dispatched.insert(dispatched.end(), batch.begin(),
                              batch.end());
            batch.clear();
        }
    });

    // Item 1 parks the worker in its linger (a batch of 4 cannot
    // fill), and an eager pop from this thread then drains the queue
    // out from under it.
    ASSERT_TRUE(queue.push(s, Item{s, 1}));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<Item> stolen;
    ASSERT_TRUE(queue.popBatch(stolen, 4, nullptr));
    ASSERT_EQ(stolen.size(), 1u);
    EXPECT_EQ(stolen[0].value, 1);

    // Let the worker's linger deadline expire on the now-empty, still
    // open queue, then offer new work: a worker that wrongly treated
    // the expiry as closed-and-drained leaves item 2 undelivered.
    std::this_thread::sleep_for(2 * kLinger);
    ASSERT_TRUE(queue.push(s, Item{s, 2}));
    queue.close(); // cuts any in-flight linger short, never past work
    worker.join();
    ASSERT_EQ(dispatched.size(), 1u)
        << "worker retired from an open queue after its linger "
           "expired empty";
    EXPECT_EQ(dispatched[0].value, 2);
}

TEST(QosQueueTest, LingerFillTargetIsTheServedClassNotTheTotal)
{
    // Dispatches are class-pure, so the linger's fill target must be
    // the depth of the class the dispatch will serve: four queued
    // Research items must not end a linger that is building a Stat
    // batch of one.
    QosBoundedQueue<Item> queue(16, /*statBurst=*/8);
    const auto stat = queue.registerSession(QosClass::Stat, 0);
    const auto research = queue.registerSession(QosClass::Research, 0);

    ASSERT_TRUE(queue.push(stat, Item{stat, 1}));
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, 100 + i}));

    // Stat is non-empty and the streak is fresh, so the dispatch
    // serves Stat; a total_-based fill predicate would see 5 >= 4 and
    // cut the linger with a 1/4-full Stat batch immediately, which is
    // exactly the shredding the linger exists to prevent.  With the
    // class-pure target the linger runs its course, and whatever Stat
    // work arrived meanwhile dispatches together.
    std::thread filler([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        for (int i = 2; i <= 4; ++i)
            ASSERT_TRUE(queue.push(stat, Item{stat, i}));
    });
    std::vector<Item> batch;
    QosClass served = QosClass::Research;
    ASSERT_TRUE(queue.popBatch(batch, 4, &served,
                               std::chrono::milliseconds(500)));
    filler.join();
    EXPECT_EQ(served, QosClass::Stat);
    EXPECT_EQ(batch.size(), 4u)
        << "linger ended on total depth instead of the served class";
}

// ---- capture storms against the shared queue --------------------- //

TEST(QosQueueTest, StormBurstOverCapacityBlocksAndNeverDrops)
{
    // A capture storm models many sessions bursting chunks far faster
    // than the pool drains them.  The admission contract is throttle,
    // never drop: with the burst an order of magnitude over capacity,
    // every item must still be delivered exactly once, and the stall
    // counters must show the backpressure that absorbed it.
    constexpr std::size_t kProducers = 3;
    constexpr int kPerProducer = 40;
    QosBoundedQueue<Item> queue(4, /*statBurst=*/4);
    std::vector<std::uint32_t> ids;
    for (std::size_t p = 0; p < kProducers; ++p)
        ids.push_back(queue.registerSession(QosClass::Research, 0));

    std::mutex seen_mutex;
    std::multiset<int> seen;
    std::thread consumer([&] {
        // Let the burst slam into the full queue first.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        std::vector<Item> batch;
        while (queue.popBatch(batch, 8, nullptr)) {
            std::lock_guard lock(seen_mutex);
            for (const Item &item : batch)
                seen.insert(item.value);
            batch.clear();
        }
    });
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(queue.push(
                    ids[p], Item{ids[p], int(p) * 1000 + i}));
        });
    for (std::thread &t : producers)
        t.join();
    queue.close();
    consumer.join();

    ASSERT_EQ(seen.size(), kProducers * std::size_t(kPerProducer));
    for (std::size_t p = 0; p < kProducers; ++p)
        for (int i = 0; i < kPerProducer; ++i)
            EXPECT_EQ(seen.count(int(p) * 1000 + i), 1u)
                << "item dropped or duplicated under the storm";

    // 120 pushes through a 4-slot queue with a delayed consumer: the
    // burst must have blocked, and the ledger must have seen it.
    EXPECT_GT(queue.totalStalls(), 0u);
    std::uint64_t per_session = 0;
    for (std::uint32_t id : ids)
        per_session += queue.stalls(id);
    EXPECT_EQ(per_session, queue.totalStalls());
}

TEST(QosQueueTest, StatLatencyBoundHoldsMidStorm)
{
    // A Research storm has the queue saturated; a clinical Stat
    // request arriving mid-storm must still be served at the very
    // next dispatch — the storm may not add even one Research
    // dispatch to Stat's wait.
    QosBoundedQueue<Item> queue(64, /*statBurst=*/4);
    const auto research = queue.registerSession(QosClass::Research, 0);
    const auto stat = queue.registerSession(QosClass::Stat, 0);
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, i}));

    // Storm already raging when the Stat work arrives.
    std::vector<Item> batch;
    QosClass served = QosClass::Stat;
    ASSERT_TRUE(queue.popBatch(batch, 4, &served));
    EXPECT_EQ(served, QosClass::Research);

    ASSERT_TRUE(queue.push(stat, Item{stat, 999}));
    batch.clear();
    ASSERT_TRUE(queue.popBatch(batch, 4, &served));
    EXPECT_EQ(served, QosClass::Stat)
        << "a Research storm delayed a Stat dispatch";
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].value, 999);
}

TEST(QosQueueTest, CloseDuringStormWakesAllBlockedProducers)
{
    // Teardown mid-storm: every producer blocked on the saturated
    // queue must wake from close() and see false — none may hang
    // (that would deadlock fleet teardown) or spuriously succeed
    // after the close.
    constexpr std::size_t kBlocked = 6;
    QosBoundedQueue<Item> queue(2, 4);
    const auto s = queue.registerSession(QosClass::Research, 0);
    ASSERT_TRUE(queue.push(s, Item{s, 0}));
    ASSERT_TRUE(queue.push(s, Item{s, 1})); // at capacity

    std::atomic<std::size_t> refused{0};
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < kBlocked; ++i)
        producers.emplace_back([&, i] {
            if (!queue.push(s, Item{s, int(100 + i)}))
                refused.fetch_add(1, std::memory_order_relaxed);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT(queue.totalStalls(), 0u);
    queue.close();
    for (std::thread &t : producers)
        t.join(); // a missed wakeup hangs right here
    EXPECT_EQ(refused.load(std::memory_order_relaxed), kBlocked);

    // The two admitted items drain; then consumers see closed.
    std::vector<Item> batch;
    EXPECT_TRUE(queue.popBatch(batch, 8, nullptr));
    EXPECT_EQ(batch.size(), 2u);
    batch.clear();
    EXPECT_FALSE(queue.popBatch(batch, 8, nullptr));
}

TEST(QosQueueTest, InvalidParametersAreFatal)
{
    EXPECT_THROW(QosBoundedQueue<Item>(0, 4), FatalError);
    // statBurst = 0 would invert the priority (Research always
    // preferred), so it is rejected rather than silently honoured.
    EXPECT_THROW(QosBoundedQueue<Item>(16, 0), FatalError);
    QosBoundedQueue<Item> queue(4, 1);
    EXPECT_THROW(queue.push(7, Item{7, 0}), FatalError);
}

// ---------------------------------------------------------------- //
//              snapshot JSON schema (quick label)                   //
// ---------------------------------------------------------------- //

/** Minimal recursive-descent parser for the subset of JSON that
    FleetSnapshot::toJson() emits (objects, arrays, quoted strings
    without escapes, numbers, true/false).  Exists so the schema test
    PARSES the output instead of substring-matching it — a malformed
    comma or an unquoted key fails here, not in some consumer. */
struct JsonValue
{
    enum class Kind { Object, Array, String, Number, Bool } kind =
        Kind::Object;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
    std::string string;
    double number = 0.0;
    bool boolean = false;

    const JsonValue &
    at(const std::string &key) const
    {
        const auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing bytes after JSON");
        return v;
    }

  private:
    char
    peek() const
    {
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end of JSON");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(
                std::string("expected '") + c + "' at byte " +
                std::to_string(pos_) + ", got '" + peek() + "'");
        ++pos_;
    }

    JsonValue
    value()
    {
        JsonValue v;
        switch (peek()) {
        case '{': {
            v.kind = JsonValue::Kind::Object;
            expect('{');
            if (peek() != '}')
                for (;;) {
                    JsonValue key = value();
                    if (key.kind != JsonValue::Kind::String)
                        throw std::runtime_error("non-string key");
                    expect(':');
                    if (!v.object.emplace(key.string, value()).second)
                        throw std::runtime_error("duplicate key: " +
                                                 key.string);
                    if (peek() != ',')
                        break;
                    ++pos_;
                }
            expect('}');
            return v;
        }
        case '[': {
            v.kind = JsonValue::Kind::Array;
            expect('[');
            if (peek() != ']')
                for (;;) {
                    v.array.push_back(value());
                    if (peek() != ',')
                        break;
                    ++pos_;
                }
            expect(']');
            return v;
        }
        case '"': {
            v.kind = JsonValue::Kind::String;
            expect('"');
            while (peek() != '"') {
                if (peek() == '\\')
                    throw std::runtime_error(
                        "escapes not expected in this schema");
                v.string += text_[pos_++];
            }
            expect('"');
            return v;
        }
        case 't':
        case 'f': {
            v.kind = JsonValue::Kind::Bool;
            const bool is_true = peek() == 't';
            const std::string word = is_true ? "true" : "false";
            if (text_.compare(pos_, word.size(), word) != 0)
                throw std::runtime_error("bad literal");
            pos_ += word.size();
            v.boolean = is_true;
            return v;
        }
        default: {
            v.kind = JsonValue::Kind::Number;
            const char *start = text_.c_str() + pos_;
            char *end = nullptr;
            v.number = std::strtod(start, &end);
            if (end == start)
                throw std::runtime_error("bad number");
            pos_ += std::size_t(end - start);
            return v;
        }
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Every key the snapshot schema promises, pinned by name.  A rename
    here is an operator-visible breaking change: update
    docs/OPERATIONS.md and this test together. */
const std::vector<std::string> kTopLevelKeys = {
    "wall_seconds",   "chunks_emitted", "chunks_per_sec",
    "dispatches",     "dispatched_requests", "mean_batch",
    "helped_dispatches", "helped_requests",
    "lane_jobs",      "lane_slots",     "lane_occupancy",
    "dispatches_by_class", "requests_by_backend", "fault_ledger",
    "sessions"};
const std::vector<std::string> kLedgerKeys = {
    "backpressure_stalls", "dead_channels", "recovering_channels",
    "dropouts",  "recoveries", "aborted_reads", "worn_pores",
    "revived_pores", "washes", "hot_swap_epochs", "storm_windows"};
const std::vector<std::string> kSessionKeys = {
    "name", "qos", "backend", "queue_depth", "chunks_emitted",
    "decisions", "helped_dispatches", "finished", "degradation"};
// A session's degradation object = the ledger keys + the histogram.
const std::string kWearHistKey = "wear_hist";

void
expectExactKeys(const JsonValue &obj,
                const std::vector<std::string> &keys,
                const std::string &context)
{
    ASSERT_EQ(obj.kind, JsonValue::Kind::Object) << context;
    EXPECT_EQ(obj.object.size(), keys.size()) << context;
    for (const std::string &key : keys)
        EXPECT_EQ(obj.object.count(key), 1u)
            << context << ": missing \"" << key << '"';
}

TEST(SnapshotSchemaTest, ToJsonRoundTripsEveryDocumentedField)
{
    // Hand-build a snapshot with a distinctive value in every field
    // so a swapped pair of emit lines cannot cancel out.
    FleetSnapshot snap;
    snap.wallSeconds = 12.25;
    snap.chunksEmitted = 4242;
    snap.chunksPerSec = 340.5;
    snap.dispatches = 777;
    snap.dispatchedRequests = 2222;
    snap.meanBatchSize = 2.8125; // exact in the %.6g telemetry format
    snap.helpedDispatches = 133;
    snap.helpedRequests = 1999;
    snap.laneJobs = 901;
    snap.laneSlots = 1024;
    snap.laneOccupancy = 0.875;
    snap.dispatchesByClass = {500, 277};
    snap.requestsByBackend = {1700, 522};
    snap.faults.backpressureStalls = 11;
    snap.faults.deadChannels = 3;
    snap.faults.recoveringChannels = 2;
    snap.faults.dropouts = 5;
    snap.faults.recoveries = 4;
    snap.faults.abortedReads = 6;
    snap.faults.poresWorn = 7;
    snap.faults.poresRevived = 1;
    snap.faults.washes = 2;
    snap.faults.hotSwapEpochs = 9;
    snap.faults.stormWindows = 8;
    SessionSnapshot a;
    a.name = "cell-0";
    a.qos = QosClass::Stat;
    a.backend = stream::DecisionBackendKind::Asic;
    a.queueDepth = 3;
    a.chunksEmitted = 4000;
    a.decisions = 64;
    a.helpedDispatches = 31;
    a.finished = false;
    a.faults.backpressureStalls = 10;
    a.faults.deadChannels = 2;
    a.faults.recoveringChannels = 1;
    a.faults.dropouts = 4;
    a.faults.recoveries = 3;
    a.faults.abortedReads = 5;
    a.faults.poresWorn = 6;
    a.faults.poresRevived = 1;
    a.faults.washes = 2;
    a.faults.hotSwapEpochs = 9;
    a.faults.stormWindows = 7;
    a.wearHistogram = {57, 1, 2, 3, 4, 5, 6, 7};
    SessionSnapshot b;
    b.name = "cell-1";
    b.qos = QosClass::Research;
    b.chunksEmitted = 242;
    b.decisions = 8;
    b.helpedDispatches = 102;
    b.finished = true;
    b.faults.backpressureStalls = 1;
    b.faults.dropouts = 1;
    b.faults.recoveries = 1;
    b.faults.abortedReads = 1;
    b.faults.poresWorn = 1;
    b.faults.washes = 0;
    b.faults.hotSwapEpochs = 0;
    b.faults.stormWindows = 1;
    snap.sessions = {a, b};

    JsonValue root;
    ASSERT_NO_THROW(root = JsonParser(snap.toJson()).parse())
        << snap.toJson();
    expectExactKeys(root, kTopLevelKeys, "top level");

    EXPECT_DOUBLE_EQ(root.at("wall_seconds").number, 12.25);
    EXPECT_DOUBLE_EQ(root.at("chunks_emitted").number, 4242.0);
    EXPECT_DOUBLE_EQ(root.at("chunks_per_sec").number, 340.5);
    EXPECT_DOUBLE_EQ(root.at("dispatches").number, 777.0);
    EXPECT_DOUBLE_EQ(root.at("dispatched_requests").number, 2222.0);
    EXPECT_DOUBLE_EQ(root.at("mean_batch").number, 2.8125);
    EXPECT_DOUBLE_EQ(root.at("helped_dispatches").number, 133.0);
    EXPECT_DOUBLE_EQ(root.at("helped_requests").number, 1999.0);
    EXPECT_DOUBLE_EQ(root.at("lane_jobs").number, 901.0);
    EXPECT_DOUBLE_EQ(root.at("lane_slots").number, 1024.0);
    EXPECT_DOUBLE_EQ(root.at("lane_occupancy").number, 0.875);

    const JsonValue &by_class = root.at("dispatches_by_class");
    expectExactKeys(by_class, {"stat", "research"}, "by class");
    EXPECT_DOUBLE_EQ(by_class.at("stat").number, 500.0);
    EXPECT_DOUBLE_EQ(by_class.at("research").number, 277.0);

    const JsonValue &by_backend = root.at("requests_by_backend");
    expectExactKeys(by_backend, {"software", "asic"}, "by backend");
    EXPECT_DOUBLE_EQ(by_backend.at("software").number, 1700.0);
    EXPECT_DOUBLE_EQ(by_backend.at("asic").number, 522.0);

    const JsonValue &ledger = root.at("fault_ledger");
    expectExactKeys(ledger, kLedgerKeys, "fault_ledger");
    EXPECT_DOUBLE_EQ(ledger.at("backpressure_stalls").number, 11.0);
    EXPECT_DOUBLE_EQ(ledger.at("dead_channels").number, 3.0);
    EXPECT_DOUBLE_EQ(ledger.at("recovering_channels").number, 2.0);
    EXPECT_DOUBLE_EQ(ledger.at("dropouts").number, 5.0);
    EXPECT_DOUBLE_EQ(ledger.at("recoveries").number, 4.0);
    EXPECT_DOUBLE_EQ(ledger.at("aborted_reads").number, 6.0);
    EXPECT_DOUBLE_EQ(ledger.at("worn_pores").number, 7.0);
    EXPECT_DOUBLE_EQ(ledger.at("revived_pores").number, 1.0);
    EXPECT_DOUBLE_EQ(ledger.at("washes").number, 2.0);
    EXPECT_DOUBLE_EQ(ledger.at("hot_swap_epochs").number, 9.0);
    EXPECT_DOUBLE_EQ(ledger.at("storm_windows").number, 8.0);

    const JsonValue &sessions = root.at("sessions");
    ASSERT_EQ(sessions.kind, JsonValue::Kind::Array);
    ASSERT_EQ(sessions.array.size(), 2u);

    const JsonValue &s0 = sessions.array[0];
    expectExactKeys(s0, kSessionKeys, "session 0");
    EXPECT_EQ(s0.at("name").string, "cell-0");
    EXPECT_EQ(s0.at("qos").string, "stat");
    EXPECT_EQ(s0.at("backend").string, "asic");
    EXPECT_DOUBLE_EQ(s0.at("queue_depth").number, 3.0);
    EXPECT_DOUBLE_EQ(s0.at("chunks_emitted").number, 4000.0);
    EXPECT_DOUBLE_EQ(s0.at("decisions").number, 64.0);
    EXPECT_DOUBLE_EQ(s0.at("helped_dispatches").number, 31.0);
    EXPECT_FALSE(s0.at("finished").boolean);
    std::vector<std::string> deg_keys = kLedgerKeys;
    deg_keys.push_back(kWearHistKey);
    const JsonValue &deg = s0.at("degradation");
    expectExactKeys(deg, deg_keys, "session 0 degradation");
    EXPECT_DOUBLE_EQ(deg.at("backpressure_stalls").number, 10.0);
    EXPECT_DOUBLE_EQ(deg.at("dead_channels").number, 2.0);
    EXPECT_DOUBLE_EQ(deg.at("recovering_channels").number, 1.0);
    EXPECT_DOUBLE_EQ(deg.at("dropouts").number, 4.0);
    EXPECT_DOUBLE_EQ(deg.at("recoveries").number, 3.0);
    EXPECT_DOUBLE_EQ(deg.at("aborted_reads").number, 5.0);
    EXPECT_DOUBLE_EQ(deg.at("worn_pores").number, 6.0);
    EXPECT_DOUBLE_EQ(deg.at("revived_pores").number, 1.0);
    EXPECT_DOUBLE_EQ(deg.at("washes").number, 2.0);
    EXPECT_DOUBLE_EQ(deg.at("hot_swap_epochs").number, 9.0);
    EXPECT_DOUBLE_EQ(deg.at("storm_windows").number, 7.0);
    const JsonValue &hist = deg.at(kWearHistKey);
    ASSERT_EQ(hist.kind, JsonValue::Kind::Array);
    ASSERT_EQ(hist.array.size(), stream::kWearBuckets);
    const std::uint64_t expected_hist[] = {57, 1, 2, 3, 4, 5, 6, 7};
    for (std::size_t i = 0; i < stream::kWearBuckets; ++i)
        EXPECT_DOUBLE_EQ(hist.array[i].number,
                         double(expected_hist[i]))
            << "wear_hist[" << i << "]";

    const JsonValue &s1 = sessions.array[1];
    expectExactKeys(s1, kSessionKeys, "session 1");
    EXPECT_EQ(s1.at("name").string, "cell-1");
    EXPECT_EQ(s1.at("qos").string, "research");
    EXPECT_EQ(s1.at("backend").string, "software");
    EXPECT_DOUBLE_EQ(s1.at("helped_dispatches").number, 102.0);
    EXPECT_TRUE(s1.at("finished").boolean);
    EXPECT_DOUBLE_EQ(
        s1.at("degradation").at("backpressure_stalls").number, 1.0);
}

// ---------------------------------------------------------------- //
//                     fleet fixtures (stream label)                 //
// ---------------------------------------------------------------- //

class FleetTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kChunk = 1600; // 0.4 s at 4 kHz

    static const sdtw::SquiggleFilterClassifier &
    classifier()
    {
        static const sdtw::SquiggleFilterClassifier instance = [] {
            sdtw::SquiggleFilterClassifier c(
                pipeline::streamVirusSquiggle());
            c.setStages(sdtw::uniformStageSchedule(
                kChunk, kStages,
                pipeline::calibratedStreamThreshold(kCalibrationReads,
                                                    0.5, 11)));
            return c;
        }();
        return instance;
    }

    /** Per-session flowcell config: distinct seed per session. */
    static stream::SessionConfig
    sessionConfig(std::size_t i)
    {
        stream::SessionConfig cfg;
        cfg.channels = kChannels;
        cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
        cfg.seed = 0xbeef + i;
        return cfg;
    }

    /** Per-session read set: distinct synthesis seed per session. */
    static const signal::Dataset &
    sessionReads(std::size_t i)
    {
        return pipeline::makeStreamDataset(kReadsPerSession, 0.5,
                                           21 + std::uint64_t(i));
    }

    /** Standalone (private-pool) run of session @p i — the oracle the
        fleet logs must match bit-exactly. */
    static const stream::SessionResult &
    standalone(std::size_t i)
    {
        static std::vector<stream::SessionResult> cache = [] {
            std::vector<stream::SessionResult> runs;
            for (std::size_t s = 0; s < kMaxFleet; ++s)
                runs.push_back(
                    stream::ReadUntilSession(classifier(),
                                             sessionConfig(s))
                        .run(sessionReads(s).reads));
            return runs;
        }();
        return cache.at(i);
    }

    static void
    expectLogsEqual(const stream::SessionResult &fleet_run,
                    const stream::SessionResult &oracle,
                    const std::string &context)
    {
        ASSERT_EQ(fleet_run.log.size(), oracle.log.size()) << context;
        for (std::size_t i = 0; i < fleet_run.log.size(); ++i) {
            const auto &a = oracle.log[i];
            const auto &b = fleet_run.log[i];
            EXPECT_EQ(a.order, b.order) << context;
            EXPECT_EQ(a.channel, b.channel) << context;
            EXPECT_EQ(a.readId, b.readId) << context;
            EXPECT_EQ(a.keep, b.keep) << context;
            EXPECT_EQ(a.cost, b.cost) << context;
            EXPECT_EQ(a.samplesUsed, b.samplesUsed) << context;
            EXPECT_EQ(a.stagesRun, b.stagesRun) << context;
            EXPECT_DOUBLE_EQ(a.virtualSec, b.virtualSec) << context;
        }
        EXPECT_EQ(fleet_run.stats.chunksEmitted,
                  oracle.stats.chunksEmitted)
            << context;
        EXPECT_EQ(fleet_run.stats.decisions, oracle.stats.decisions)
            << context;
        EXPECT_EQ(fleet_run.stats.dpRowsFolded,
                  oracle.stats.dpRowsFolded)
            << context;
    }

    /** Build an orchestrator with @p fleet_size sessions, alternating
        QoS classes, over the shared-pool @p config. */
    static FleetResult
    runFleet(std::size_t fleet_size, FleetConfig config)
    {
        FleetOrchestrator fleet(config);
        for (std::size_t i = 0; i < fleet_size; ++i) {
            SessionSpec spec;
            spec.name = "cell-" + std::to_string(i);
            spec.classifier = &classifier();
            spec.config = sessionConfig(i);
            spec.qos =
                i % 2 == 0 ? QosClass::Stat : QosClass::Research;
            spec.reads = sessionReads(i).reads;
            fleet.addSession(std::move(spec));
        }
        return fleet.run();
    }
};

// ---------------------------------------------------------------- //
//           determinism: fleet logs == standalone logs              //
// ---------------------------------------------------------------- //

TEST_F(FleetTest, PerSessionLogsMatchStandaloneAcrossFleetAndWorkers)
{
    // The tentpole invariant: sharding a session into any fleet mix,
    // at any worker count, under any QoS interleaving, must not
    // change one bit of its decision log.  Virtual time depends only
    // on (seed, config, reads); the shared pool is wall-clock only.
    for (std::size_t fleet_size : kFleetSizes) {
        for (unsigned workers : kWorkerCounts) {
            FleetConfig cfg;
            cfg.workers = workers;
            cfg.queueCapacity = 32;
            cfg.dispatchBatch = 16;
            const FleetResult result = runFleet(fleet_size, cfg);
            ASSERT_EQ(result.sessions.size(), fleet_size);
            for (std::size_t i = 0; i < fleet_size; ++i) {
                expectLogsEqual(
                    result.sessions[i].result, standalone(i),
                    "fleet=" + std::to_string(fleet_size) +
                        " workers=" + std::to_string(workers) +
                        " session=" + std::to_string(i));
            }
        }
    }
}

TEST_F(FleetTest, DriversHelpWithWhateverIsQueuedAcrossWorkers)
{
    // A session driver that would block folds up to one queued
    // dispatch of any session on its own engine, thin or full, unless
    // a worker is idle to fold it.  With one worker and a deep
    // queue the drivers must help, and every session's log must still
    // equal its standalone run, as it must with three workers.
    // Near-instant captures line every channel's chunks up on the
    // same virtual instants, and a virtual decision latency of one
    // chunk keeps each request in flight until the next wave is
    // submitted, so the shared queue holds whole waves.
    const auto helping_config = [](std::size_t i) {
        stream::SessionConfig cfg = sessionConfig(i);
        cfg.captureDelayMeanSec = 1e-3;
        cfg.decisionLatencySec = cfg.chunkSeconds;
        return cfg;
    };
    std::vector<stream::SessionResult> oracles;
    for (std::size_t i = 0; i < kMaxFleet; ++i)
        oracles.push_back(
            stream::ReadUntilSession(classifier(), helping_config(i))
                .run(sessionReads(i).reads));

    for (unsigned workers : {1u, 3u}) {
        FleetConfig cfg;
        cfg.workers = workers;
        cfg.queueCapacity = 256;
        cfg.dispatchBatch = 2;
        FleetOrchestrator fleet(cfg);
        for (std::size_t i = 0; i < kMaxFleet; ++i) {
            SessionSpec spec;
            spec.name = "cell-" + std::to_string(i);
            spec.classifier = &classifier();
            spec.config = helping_config(i);
            spec.qos = i % 2 == 0 ? QosClass::Stat : QosClass::Research;
            spec.reads = sessionReads(i).reads;
            fleet.addSession(std::move(spec));
        }
        const FleetResult result = fleet.run();
        const std::string context = "workers=" + std::to_string(workers);
        std::uint64_t helped = 0;
        for (std::size_t i = 0; i < kMaxFleet; ++i) {
            expectLogsEqual(result.sessions[i].result, oracles[i],
                            context + " session=" + std::to_string(i));
            EXPECT_EQ(result.sessions[i].result.stats.helpedDispatches,
                      result.snapshot.sessions[i].helpedDispatches)
                << context;
            helped += result.snapshot.sessions[i].helpedDispatches;
        }
        EXPECT_EQ(helped, result.snapshot.helpedDispatches) << context;
        EXPECT_LE(result.snapshot.helpedDispatches,
                  result.snapshot.dispatches)
            << context;
        // Every helped dispatch carries between one request and a
        // full dispatchBatch.
        EXPECT_GE(result.snapshot.helpedRequests,
                  result.snapshot.helpedDispatches)
            << context;
        EXPECT_LE(result.snapshot.helpedRequests,
                  result.snapshot.helpedDispatches * cfg.dispatchBatch)
            << context;
        if (workers == 1) {
            EXPECT_GT(result.snapshot.helpedDispatches, 0u) << context;
        }
    }
}

TEST_F(FleetTest, LaneBatchedFleetMatchesOfflineClassifyBitExactly)
{
    // Cross-session lane folds only change wall-clock throughput: each
    // session's fleet log equals its standalone log, and every record
    // and the DP work equal the offline classifier's.
    FleetConfig cfg;
    cfg.workers = 2;
    const FleetResult fleet = runFleet(kOracleSessions, cfg);
    for (std::size_t i = 0; i < kOracleSessions; ++i) {
        const std::string context = "session=" + std::to_string(i);
        const stream::SessionResult &run = fleet.sessions[i].result;
        expectLogsEqual(run, standalone(i), context);
        const signal::Dataset &data = sessionReads(i);
        std::uint64_t offline_rows = 0;
        for (const stream::DecisionRecord &rec : run.log) {
            const auto &read = data.reads[std::size_t(rec.readId)];
            ASSERT_EQ(read.id, rec.readId) << context;
            // classify(read.raw), spelled out so its DP rows can be
            // summed.
            sdtw::ClassifierStream stream = classifier().beginStream();
            classifier().feedChunk(stream, read.raw);
            const auto offline = classifier().finishStream(stream);
            offline_rows += stream.consumed;
            EXPECT_EQ(rec.keep, offline.keep) << context;
            EXPECT_EQ(rec.cost, offline.cost) << context;
            EXPECT_EQ(rec.samplesUsed, offline.samplesUsed) << context;
            EXPECT_EQ(rec.stagesRun, offline.stagesRun) << context;
        }
        EXPECT_EQ(run.stats.dpRowsFolded, offline_rows) << context;
    }
}

// ---------------------------------------------------------------- //
//                      QoS under real load                          //
// ---------------------------------------------------------------- //

TEST_F(FleetTest, StatPreemptsResearchUnderSharedPoolContention)
{
    // One worker and the two session drivers, which fold queued
    // requests whenever they wait, serve a Stat and a Research
    // flowcell with the same workload: every dispatch, helped or not,
    // prefers Stat, so Stat decisions must clear the queue faster.
    // Medians (not tails) keep this robust on a noisy host; the
    // queue-level interleaving is pinned deterministically in
    // QosQueueTest.  A virtual decision latency of one chunk period
    // keeps every channel's request in flight while the next chunk
    // surfaces, and four times the fixture's channels per flowcell
    // queue more requests than the three folding threads clear, so
    // both sessions hold several queued requests at once and the
    // dispatch preference actually decides who waits.
    FleetConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 8; // sustained queuing
    cfg.statBurst = 4;
    cfg.dispatchBatch = 1; // serve one request per pull: strict order
    // The Stat session gets a multiple of the reads so it stays
    // active for the Research session's whole lifetime.  Otherwise
    // Stat — being preferred — finishes early and Research's
    // uncontended tail drags its median below Stat's, inverting the
    // comparison.
    const signal::Dataset &stat_reads = pipeline::makeStreamDataset(
        kReadsPerSession * kStatReadsFactor, 0.5, 77);
    FleetOrchestrator fleet(cfg);
    for (std::size_t i = 0; i < 2; ++i) {
        SessionSpec spec;
        spec.name = "cell-" + std::to_string(i);
        spec.classifier = &classifier();
        spec.config = sessionConfig(i);
        spec.config.channels = 4 * kChannels;
        spec.config.decisionLatencySec = spec.config.chunkSeconds;
        spec.qos = i == 0 ? QosClass::Stat : QosClass::Research;
        spec.reads =
            i == 0 ? stat_reads.reads : sessionReads(i).reads;
        fleet.addSession(std::move(spec));
    }
    const FleetResult result = fleet.run();

    ASSERT_EQ(result.sessions[0].qos, QosClass::Stat);
    ASSERT_EQ(result.sessions[1].qos, QosClass::Research);
    const auto &stat = result.sessions[0].result.stats;
    const auto &research = result.sessions[1].result.stats;
    EXPECT_GT(stat.decisions, 0u);
    EXPECT_GT(research.decisions, 0u);
    EXPECT_LT(stat.latency.p50us, research.latency.p50us);

    // Both classes were actually dispatched — Research was not
    // starved behind the Stat preference.
    const auto &by_class = result.snapshot.dispatchesByClass;
    EXPECT_GT(by_class[std::size_t(QosClass::Stat)], 0u);
    EXPECT_GT(by_class[std::size_t(QosClass::Research)], 0u);
}

// ---------------------------------------------------------------- //
//                  backpressure and admission                       //
// ---------------------------------------------------------------- //

TEST_F(FleetTest, BackpressureThrottlesButNeverDropsAChunk)
{
    // Worst-case contention: a 2-slot shared queue and a 1-request
    // admission quota per session.  Sessions block at capture time;
    // every read of every session must still be decided exactly once
    // with a log identical to the uncontended standalone run.
    FleetConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 2;
    cfg.sessionQuota = 1;
    cfg.dispatchBatch = 2;
    const FleetResult result = runFleet(2, cfg);

    for (std::size_t i = 0; i < 2; ++i) {
        const auto &run = result.sessions[i].result;
        expectLogsEqual(run, standalone(i),
                        "backpressure session=" + std::to_string(i));
        const auto &reads = sessionReads(i).reads;
        std::vector<bool> seen(reads.size(), false);
        for (const auto &rec : run.log) {
            ASSERT_LT(std::size_t(rec.readId), seen.size());
            EXPECT_FALSE(seen[std::size_t(rec.readId)])
                << "read decided twice";
            seen[std::size_t(rec.readId)] = true;
        }
        EXPECT_EQ(run.log.size(), reads.size());
    }
    // Nothing left queued after a clean drain.
    for (const auto &session : result.snapshot.sessions)
        EXPECT_EQ(session.queueDepth, 0u);
}

// ---------------------------------------------------------------- //
//                  teardown and observability                       //
// ---------------------------------------------------------------- //

TEST_F(FleetTest, CleanTeardownMidLoadLeavesConsistentPartialLogs)
{
    // Stop every virtual clock after two virtual seconds while the
    // shared queue is still full of in-flight work: the fleet must
    // drain, join, and hand back consistent partial results.
    FleetConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 2;
    FleetOrchestrator fleet(cfg);
    for (std::size_t i = 0; i < 2; ++i) {
        SessionSpec spec;
        spec.name = "cell-" + std::to_string(i);
        spec.classifier = &classifier();
        spec.config = sessionConfig(i);
        spec.config.maxVirtualHours = 2.0 / 3600.0;
        spec.qos = QosClass::Stat;
        spec.reads = sessionReads(i).reads;
        fleet.addSession(std::move(spec));
    }
    const FleetResult result = fleet.run();
    for (const auto &session : result.sessions) {
        const auto &run = session.result;
        EXPECT_LT(run.log.size(), kReadsPerSession);
        EXPECT_EQ(run.stats.readsKept + run.stats.readsEjected,
                  run.log.size());
        for (std::size_t i = 1; i < run.log.size(); ++i)
            EXPECT_GE(run.log[i].virtualSec,
                      run.log[i - 1].virtualSec);
    }
    for (const auto &session : result.snapshot.sessions)
        EXPECT_TRUE(session.finished);
}

TEST_F(FleetTest, SnapshotIsConsistentMidRunAndFinal)
{
    FleetConfig cfg;
    cfg.workers = 2;
    FleetOrchestrator fleet(cfg);
    for (std::size_t i = 0; i < 2; ++i) {
        SessionSpec spec;
        spec.name = "cell-" + std::to_string(i);
        spec.classifier = &classifier();
        spec.config = sessionConfig(i);
        spec.qos = i == 0 ? QosClass::Stat : QosClass::Research;
        spec.reads = sessionReads(i).reads;
        fleet.addSession(std::move(spec));
    }

    // Poll snapshots concurrently with run(): chunk counts must be
    // monotone and every field internally consistent.  (Under TSan
    // this also audits the snapshot path against the worker pool.)
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> polls{0};
    std::thread poller([&] {
        std::uint64_t last_chunks = 0;
        while (!done.load(std::memory_order_acquire)) {
            const FleetSnapshot snap = fleet.snapshot();
            // Until run() publishes started_, snapshot() returns an
            // empty view (registration-phase contract, so it never
            // races addSession) — only live polls are audited.
            if (!snap.sessions.empty()) {
                EXPECT_GE(snap.chunksEmitted, last_chunks);
                last_chunks = snap.chunksEmitted;
                EXPECT_GE(snap.laneOccupancy, 0.0);
                EXPECT_LE(snap.laneOccupancy, 1.0);
                EXPECT_EQ(snap.sessions.size(), 2u);
                polls.fetch_add(1, std::memory_order_relaxed);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });
    const FleetResult result = fleet.run();
    done.store(true, std::memory_order_release);
    poller.join();
    EXPECT_GT(polls.load(std::memory_order_relaxed), 0u);

    const FleetSnapshot &snap = result.snapshot;
    std::uint64_t per_session_chunks = 0;
    for (const auto &session : snap.sessions) {
        per_session_chunks += session.chunksEmitted;
        EXPECT_TRUE(session.finished);
        EXPECT_EQ(session.queueDepth, 0u);
    }
    EXPECT_EQ(snap.chunksEmitted, per_session_chunks);
    EXPECT_EQ(snap.chunksEmitted,
              result.sessions[0].result.stats.chunksEmitted +
                  result.sessions[1].result.stats.chunksEmitted);
    EXPECT_GT(snap.dispatches, 0u);
    EXPECT_GE(snap.meanBatchSize, 1.0);
    EXPECT_GT(snap.wallSeconds, 0.0);
    EXPECT_GT(snap.laneSlots, 0u);

    // The JSON rendering carries the same aggregates.
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"chunks_per_sec\""), std::string::npos);
    EXPECT_NE(json.find("\"lane_occupancy\""), std::string::npos);
    EXPECT_NE(json.find("\"cell-1\""), std::string::npos);
    EXPECT_NE(json.find("\"stat\""), std::string::npos);
}

// ---------------------------------------------------------------- //
//                 fault injection across the fleet                  //
// ---------------------------------------------------------------- //

TEST_F(FleetTest, FaultedSessionsStayDeterministicAndLedgerAggregates)
{
    // Hostile conditions on every flowcell of a shared-pool fleet:
    // dropouts, a capture storm, hot pore wear with a wash, and a
    // mid-session reference hot-swap.  Two invariants: (1) each
    // session's log is bit-identical to a faulted standalone run of
    // the same (seed, config, reads, FaultPlan); (2) the snapshot's
    // fault ledger equals the sum of the per-session deterministic
    // DegradationStats, and each session's snapshot degradation block
    // equals its final stats (gauges are exact at quiescence).
    static const sdtw::SquiggleFilterClassifier keep_all = [] {
        sdtw::SquiggleFilterClassifier c(
            pipeline::streamVirusSquiggle());
        c.setSingleStage(kChunk,
                         std::numeric_limits<Cost>::max());
        return c;
    }();
    readuntil::PoreWearModel wear;
    wear.deathRatePerHour = 1800.0;
    wear.remuxRecovery = 1.0;

    const std::size_t fleet_size = std::min<std::size_t>(2, kMaxFleet);
    std::vector<stream::FaultPlan> plans(fleet_size);
    for (std::size_t i = 0; i < fleet_size; ++i)
        plans[i]
            .dropout(int(i) % kChannels, 0.8 + 0.3 * double(i), 2.0)
            .storm(0.5, 4.0, 8.0)
            .hotSwap(3.0, &keep_all)
            .enableWear(wear, 0x3ea6 + i)
            .wash(5.0);

    FleetConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 8;
    FleetOrchestrator fleet(cfg);
    for (std::size_t i = 0; i < fleet_size; ++i) {
        SessionSpec spec;
        spec.name = "cell-" + std::to_string(i);
        spec.classifier = &classifier();
        spec.config = sessionConfig(i);
        spec.config.faults = &plans[i];
        spec.qos = i % 2 == 0 ? QosClass::Stat : QosClass::Research;
        spec.reads = sessionReads(i).reads;
        fleet.addSession(std::move(spec));
    }
    const FleetResult result = fleet.run();
    ASSERT_EQ(result.sessions.size(), fleet_size);

    FaultLedger sum;
    for (std::size_t i = 0; i < fleet_size; ++i) {
        stream::SessionConfig scfg = sessionConfig(i);
        scfg.faults = &plans[i];
        const auto oracle =
            stream::ReadUntilSession(classifier(), scfg)
                .run(sessionReads(i).reads);
        expectLogsEqual(result.sessions[i].result, oracle,
                        "faulted session=" + std::to_string(i));

        const auto &deg = result.sessions[i].result.stats.degradation;
        const auto &live = result.snapshot.sessions[i];
        EXPECT_EQ(live.faults.dropouts, deg.dropouts);
        EXPECT_EQ(live.faults.recoveries, deg.recoveries);
        EXPECT_EQ(live.faults.abortedReads, deg.readsAborted);
        EXPECT_EQ(live.faults.poresWorn, deg.poresWorn);
        EXPECT_EQ(live.faults.poresRevived, deg.poresRevived);
        EXPECT_EQ(live.faults.washes, deg.washes);
        EXPECT_EQ(live.faults.hotSwapEpochs, deg.hotSwapEpochs);
        EXPECT_EQ(live.faults.stormWindows, deg.stormWindows);
        EXPECT_EQ(live.faults.deadChannels, deg.deadChannelsAtEnd);
        for (std::size_t b = 0; b < stream::kWearBuckets; ++b)
            EXPECT_EQ(live.wearHistogram[b], deg.wearHistogram[b])
                << "session " << i << " wear bucket " << b;

        sum.dropouts += deg.dropouts;
        sum.recoveries += deg.recoveries;
        sum.abortedReads += deg.readsAborted;
        sum.poresWorn += deg.poresWorn;
        sum.poresRevived += deg.poresRevived;
        sum.washes += deg.washes;
        sum.hotSwapEpochs += deg.hotSwapEpochs;
        sum.stormWindows += deg.stormWindows;
        sum.deadChannels += deg.deadChannelsAtEnd;
    }
    const FaultLedger &ledger = result.snapshot.faults;
    EXPECT_EQ(ledger.dropouts, sum.dropouts);
    EXPECT_EQ(ledger.recoveries, sum.recoveries);
    EXPECT_EQ(ledger.abortedReads, sum.abortedReads);
    EXPECT_EQ(ledger.poresWorn, sum.poresWorn);
    EXPECT_EQ(ledger.poresRevived, sum.poresRevived);
    EXPECT_EQ(ledger.washes, sum.washes);
    EXPECT_EQ(ledger.hotSwapEpochs, sum.hotSwapEpochs);
    EXPECT_EQ(ledger.stormWindows, sum.stormWindows);
    EXPECT_EQ(ledger.deadChannels, sum.deadChannels);
    // Every session saw the storm and the swap.
    EXPECT_EQ(ledger.stormWindows, std::uint64_t(fleet_size));
    EXPECT_EQ(ledger.hotSwapEpochs, std::uint64_t(fleet_size));
}

// ---------------------------------------------------------------- //
//                         misconfiguration                          //
// ---------------------------------------------------------------- //

TEST_F(FleetTest, MisconfiguredFleetsAreFatal)
{
    {
        FleetOrchestrator fleet(FleetConfig{});
        SessionSpec spec;
        spec.name = "no-classifier";
        EXPECT_THROW(fleet.addSession(std::move(spec)), FatalError);
    }
    {
        // Kernel-config disagreement: one shared worker kernel cannot
        // serve two different recurrences.
        static const sdtw::SquiggleFilterClassifier vanilla(
            pipeline::streamVirusSquiggle(), sdtw::vanillaConfig());
        FleetOrchestrator fleet(FleetConfig{});
        SessionSpec a;
        a.name = "hardware";
        a.classifier = &classifier();
        a.reads = sessionReads(0).reads;
        fleet.addSession(std::move(a));
        SessionSpec b;
        b.name = "vanilla";
        b.classifier = &vanilla;
        b.reads = sessionReads(1).reads;
        EXPECT_THROW(fleet.addSession(std::move(b)), FatalError);
    }
    {
        FleetOrchestrator fleet(FleetConfig{});
        EXPECT_THROW(fleet.run(), FatalError);
    }
    {
        // A fault plan is validated at registration, on the caller's
        // thread — an out-of-range dropout channel must not make it
        // anywhere near a driver thread.
        stream::FaultPlan bad;
        bad.dropout(kChannels + 7, 1.0, 1.0);
        FleetOrchestrator fleet(FleetConfig{});
        SessionSpec spec;
        spec.name = "bad-plan";
        spec.classifier = &classifier();
        spec.config = sessionConfig(0);
        spec.config.faults = &bad;
        spec.reads = sessionReads(0).reads;
        EXPECT_THROW(fleet.addSession(std::move(spec)), FatalError);
    }
    {
        // A hot-swap target that disagrees on the kernel config would
        // invalidate the shared worker kernels mid-run: rejected at
        // registration too.
        static const sdtw::SquiggleFilterClassifier vanilla(
            pipeline::streamVirusSquiggle(), sdtw::vanillaConfig());
        stream::FaultPlan bad;
        bad.hotSwap(1.0, &vanilla);
        FleetOrchestrator fleet(FleetConfig{});
        SessionSpec spec;
        spec.name = "bad-swap";
        spec.classifier = &classifier();
        spec.config = sessionConfig(0);
        spec.config.faults = &bad;
        spec.reads = sessionReads(0).reads;
        EXPECT_THROW(fleet.addSession(std::move(spec)), FatalError);
    }
    {
        FleetConfig cfg;
        cfg.dispatchBatch = 0;
        EXPECT_THROW(FleetOrchestrator{cfg}, FatalError);
    }
    {
        // An Asic session whose kernel config the modelled hardware
        // cannot implement is rejected at registration.
        static const sdtw::SquiggleFilterClassifier vanilla(
            pipeline::streamVirusSquiggle(), sdtw::vanillaConfig());
        FleetOrchestrator fleet(FleetConfig{});
        SessionSpec spec;
        spec.name = "asic-vanilla";
        spec.classifier = &vanilla;
        spec.config = sessionConfig(0);
        spec.config.backend = stream::DecisionBackendKind::Asic;
        spec.reads = sessionReads(0).reads;
        EXPECT_THROW(fleet.addSession(std::move(spec)), FatalError);
    }
    {
        // So is a degenerate design point.
        FleetOrchestrator fleet(FleetConfig{});
        SessionSpec spec;
        spec.name = "asic-no-pes";
        spec.classifier = &classifier();
        spec.config = sessionConfig(0);
        spec.config.backend = stream::DecisionBackendKind::Asic;
        spec.config.asic.arrayDim = 0;
        spec.reads = sessionReads(0).reads;
        EXPECT_THROW(fleet.addSession(std::move(spec)), FatalError);
    }
}

} // namespace
} // namespace sf::fleet
