#include "wl/trace_generator.h"

#include <array>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/rng.h"
#include "sim/size_class.h"

namespace memento {
namespace {

/**
 * Build one op. Each field must fit its 32-bit slot and ids must stay
 * below kCorruptObjId: a spec that overflows them is a bug, never a
 * reason to truncate.
 */
TraceOp
makeOp(OpKind kind, std::uint64_t value, std::uint64_t obj_id,
       std::uint64_t offset)
{
    panic_if(value > kTraceFieldMax || offset > kTraceFieldMax,
             "trace generator: op field above 32 bits (value ", value,
             ", offset ", offset, ")");
    panic_if(obj_id >= kCorruptObjId, "trace generator: object id ",
             obj_id, " reaches the reserved corrupt-record id");
    return {kind, static_cast<std::uint32_t>(value),
            static_cast<std::uint32_t>(obj_id),
            static_cast<std::uint32_t>(offset)};
}

} // namespace

Trace
TraceGenerator::generate() const
{
    Rng rng(spec_.seed * 0x9e3779b97f4a7c15ull + 0xD1B54A32D192ED03ull);
    Trace trace;
    // Reserve the stream's upper bound in the trace's word array so it
    // never regrows: a regrowth copy leaves the old buffer behind as a
    // hole in the heap, and a sweep's peak memory is mostly traces.
    // (The side table of the rare wide ops grows on its own.) Per
    // event: compute, static accesses, malloc, init stores, reuse
    // loads and at most one free (plus FunctionEnd once); per burst:
    // malloc, store and free per object, then one compute.
    std::uint64_t max_ops = 1 + spec_.numAllocs *
                                    (3 + spec_.staticAccesses +
                                     spec_.touchStores + spec_.touchLoads);
    // Object ids are issued densely from 1: one per event, one per
    // burst object.
    std::uint64_t num_ids = spec_.numAllocs;
    if (spec_.burstEvery != 0) {
        const std::uint64_t bursts = spec_.numAllocs / spec_.burstEvery;
        const std::uint64_t per_burst =
            spec_.burstBytes / spec_.burstObjSize;
        max_ops += bursts * (3 * per_burst + 1);
        num_ids += bursts * per_burst;
    }
    trace.reserve(max_ops);

    std::uint64_t next_id = 1;

    // freed[id] != 0: the object's Free has been emitted.
    std::vector<std::uint8_t> freed(num_ids + 1, 0);

    // Per-size-class allocation counters and death schedules. A death
    // is a (due, id) pair on a min-heap, due being the class counter
    // value at which it is emitted. Every due is scheduled above the
    // current count, so deaths pop in due order and, within one due,
    // in ascending id, which is the order they were scheduled in.
    using Death = std::pair<std::uint64_t, std::uint64_t>;
    using DeathHeap =
        std::priority_queue<Death, std::vector<Death>, std::greater<>>;
    std::vector<std::uint64_t> class_count(kNumSmallClasses, 0);
    std::vector<DeathHeap> due_small(kNumSmallClasses);

    // Large-object deaths scheduled on the global allocation counter.
    DeathHeap due_large;

    auto emit_due = [&](DeathHeap &due, std::uint64_t now) {
        while (!due.empty() && due.top().first <= now) {
            const std::uint64_t dead = due.top().second;
            due.pop();
            trace.push_back(makeOp(OpKind::Free, 0, dead, 0));
            freed[dead] = 1;
        }
    };

    // The 64 most recently allocated objects (targets for reuse
    // loads), oldest first from recent_head.
    struct Recent
    {
        std::uint64_t objId;
        std::uint64_t size;
    };
    constexpr std::size_t kRecent = 64;
    std::array<Recent, kRecent> recent{};
    std::size_t recent_head = 0;
    std::size_t recent_size = 0;

    auto touch_offset = [&](std::uint64_t size, unsigned line) {
        const std::uint64_t off = static_cast<std::uint64_t>(line) *
                                  kLineSize;
        return off < size ? off : size - 1;
    };

    for (std::uint64_t i = 0; i < spec_.numAllocs; ++i) {
        // Application compute between allocation events.
        trace.push_back(makeOp(OpKind::Compute, spec_.computePerAlloc, 0, 0));

        // Background references into the static working set.
        for (unsigned a = 0; a < spec_.staticAccesses; ++a) {
            const std::uint64_t off = rng.nextBelow(spec_.staticWsBytes);
            trace.push_back(makeOp(rng.nextBool(0.3) ? OpKind::StaticStore
                                                     : OpKind::StaticLoad,
                                   0, 0, off));
        }

        // The allocation itself.
        const bool is_large = rng.nextBool(spec_.pLarge);
        const std::uint64_t size = is_large
                                       ? spec_.largeDist.sample(rng)
                                       : spec_.sizeDist.sample(rng);
        const std::uint64_t id = next_id++;
        trace.push_back(makeOp(OpKind::Malloc, size, id, 0));

        // Initialize the object: stores to its leading lines.
        const unsigned obj_lines =
            static_cast<unsigned>((size + kLineSize - 1) / kLineSize);
        const unsigned stores = spec_.touchStores < obj_lines
                                    ? spec_.touchStores
                                    : obj_lines;
        for (unsigned t = 0; t < stores; ++t)
            trace.push_back(
                makeOp(OpKind::Store, 0, id, touch_offset(size, t)));

        // Reuse loads over recently allocated objects.
        if (recent_size < kRecent)
            ++recent_size;
        else
            recent_head = (recent_head + 1) % kRecent;
        Recent &fresh = recent[(recent_head + recent_size - 1) % kRecent];
        fresh = {id, size};
        for (unsigned t = 0; t < spec_.touchLoads; ++t) {
            // Pick a still-live recent object (never read freed memory).
            const Recent *target = nullptr;
            for (unsigned attempt = 0; attempt < 4 && !target; ++attempt) {
                const Recent &r =
                    recent[(recent_head + rng.nextBelow(recent_size)) %
                           kRecent];
                if (!freed[r.objId])
                    target = &r;
            }
            if (!target)
                target = &fresh; // The fresh object, never freed.
            const unsigned line = static_cast<unsigned>(rng.nextBelow(
                (target->size + kLineSize - 1) / kLineSize));
            trace.push_back(makeOp(OpKind::Load, 0, target->objId,
                                   touch_offset(target->size, line)));
        }

        // Schedule the death.
        if (!is_large) {
            const unsigned cls = sizeClassIndex(
                size <= kMaxSmallSize ? size : kMaxSmallSize);
            ++class_count[cls];
            const std::uint64_t distance =
                spec_.lifetime.sampleDistance(rng);
            if (distance > 0)
                due_small[cls].emplace(class_count[cls] + distance, id);
            // Emit deaths that have become due for this class.
            emit_due(due_small[cls], class_count[cls]);
        } else {
            if (rng.nextBool(spec_.pLargeShort)) {
                const std::uint64_t distance =
                    1 + rng.nextGeometric(1.0 / 6.0);
                due_large.emplace(i + 1 + distance, id);
            }
            emit_due(due_large, i + 1);
        }

        // Phase burst: allocate a scratch buffer set, touch it, free it
        // wholesale at the end of the phase.
        if (spec_.burstEvery != 0 && (i + 1) % spec_.burstEvery == 0) {
            const std::uint64_t count =
                spec_.burstBytes / spec_.burstObjSize;
            const std::uint64_t first_bid = next_id;
            next_id += count;
            for (std::uint64_t bid = first_bid; bid < next_id; ++bid) {
                trace.push_back(
                    makeOp(OpKind::Malloc, spec_.burstObjSize, bid, 0));
                trace.push_back(makeOp(OpKind::Store, 0, bid, 0));
            }
            trace.push_back(
                makeOp(OpKind::Compute, spec_.computePerAlloc, 0, 0));
            for (std::uint64_t bid = first_bid; bid < next_id; ++bid) {
                trace.push_back(makeOp(OpKind::Free, 0, bid, 0));
                freed[bid] = 1;
            }
        }
    }

    trace.push_back(makeOp(OpKind::FunctionEnd, 0, 0, 0));
    return trace;
}

std::shared_ptr<const Trace>
TraceCache::get(const WorkloadSpec &spec)
{
    const std::string key = spec.id + '#' + std::to_string(spec.seed) +
                            '#' + std::to_string(spec.numAllocs);
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::shared_ptr<Entry> &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // The map lock is not held while synthesizing: other workloads'
    // first touches proceed concurrently; only same-key late arrivals
    // block here, on the entry's own once_flag.
    std::call_once(entry->once, [&] {
        entry->trace =
            std::make_shared<const Trace>(TraceGenerator(spec).generate());
        generations_.fetch_add(1, std::memory_order_relaxed);
    });
    return entry->trace;
}

} // namespace memento
