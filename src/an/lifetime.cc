#include "an/lifetime.h"

#include <optional>
#include <vector>

#include "sim/addr_map.h"
#include "sim/size_class.h"

namespace memento {

TraceProfile
profileTrace(const Trace &trace)
{
    TraceProfile profile;

    struct LiveObj
    {
        std::uint64_t size = 0;
        unsigned cls = 0;
        std::uint64_t bornAt = 0; ///< Class counter at allocation.
    };
    // Class counters: one per small class plus one shared large stream.
    std::vector<std::uint64_t> class_count(kNumSmallClasses + 1, 0);
    // Keyed by object id + 1: ids are 32-bit, so the key never wraps.
    AddrMap<LiveObj> live;

    std::uint64_t compute_instructions = 0;
    std::uint64_t small_short = 0, small_long = 0;
    std::uint64_t large_short = 0, large_long = 0;

    auto classify = [&](const LiveObj &obj, std::uint64_t distance,
                        bool freed) {
        const bool small = obj.size <= kMaxSmallSize;
        const bool short_lived = freed && distance <= kShortLivedDistance;
        if (small && short_lived)
            ++small_short;
        else if (small)
            ++small_long;
        else if (short_lived)
            ++large_short;
        else
            ++large_long;
        profile.lifetimeHist.add(
            freed ? (distance == 0 ? 1 : distance) : 100000);
    };

    for (const TraceOp &op : trace) {
        switch (op.kind) {
          case OpKind::Compute:
            compute_instructions += op.value;
            break;
          case OpKind::Malloc: {
            ++profile.allocations;
            profile.sizeHist.add(op.value);
            LiveObj obj;
            obj.size = op.value;
            obj.cls = op.value <= kMaxSmallSize
                          ? sizeClassIndex(op.value)
                          : kNumSmallClasses;
            obj.bornAt = ++class_count[obj.cls];
            live.insert(Addr{op.objId} + 1, obj);
            break;
          }
          case OpKind::Free: {
            ++profile.frees;
            const std::optional<LiveObj> obj = live.take(Addr{op.objId} + 1);
            if (!obj)
                break;
            classify(*obj, class_count[obj->cls] - obj->bornAt,
                     /*freed=*/true);
            break;
          }
          default:
            break;
        }
    }

    // Everything still live is batch-freed at exit: long-lived. The
    // walk only bumps commutative counters, so visit order is moot.
    live.forEach([&](Addr, const LiveObj &obj) {
        classify(obj, 0, /*freed=*/false);
    });

    const std::uint64_t classified =
        small_short + small_long + large_short + large_long;
    if (classified > 0) {
        const double n = static_cast<double>(classified);
        profile.joint.smallShort = small_short / n;
        profile.joint.smallLong = small_long / n;
        profile.joint.largeShort = large_short / n;
        profile.joint.largeLong = large_long / n;
    }
    if (compute_instructions > 0) {
        profile.mallocPki = 1000.0 *
                            static_cast<double>(profile.allocations) /
                            static_cast<double>(compute_instructions);
    }
    return profile;
}

} // namespace memento
