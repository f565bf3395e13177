/**
 * @file
 * Host heap traffic on the simulation path.
 *
 * This executable replaces the global operator new and delete (plain,
 * sized, aligned and nothrow forms) with counting forwards to malloc
 * and free, and bounds the allocations per trace op of trace synthesis
 * and of a baseline and a Memento replay over paper workloads of every
 * language, and the bytes per invocation the fleet stage requests. A
 * profiler that does not sample libc cannot see this cost, so the
 * bound lives here. It is its own executable because the replacement
 * is program-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "machine/experiment.h"
#include "sim/config.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace {

std::atomic<std::uint64_t> gAllocations{0};
/** Bytes requested, summed over every counted allocation. */
std::atomic<std::uint64_t> gBytes{0};

void
count(std::size_t size) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(size, std::memory_order_relaxed);
}

void *
countedMalloc(std::size_t size) noexcept
{
    count(size);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedMalloc(std::size_t size, std::align_val_t align) noexcept
{
    count(size);
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    void *ptr = nullptr;
    return posix_memalign(&ptr, alignment, size == 0 ? 1 : size) == 0
               ? ptr
               : nullptr;
}

void *
orThrow(void *ptr)
{
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

/**
 * Out of line, so the compiler never sees a new-expression's pointer
 * reach free() and warn of a mismatch the replacement makes correct.
 */
[[gnu::noinline]] void
release(void *ptr) noexcept
{
    std::free(ptr);
}

} // namespace

void *operator new(std::size_t n) { return orThrow(countedMalloc(n)); }
void *operator new[](std::size_t n) { return orThrow(countedMalloc(n)); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedMalloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedMalloc(n);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return orThrow(countedAlignedMalloc(n, a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return orThrow(countedAlignedMalloc(n, a));
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlignedMalloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAlignedMalloc(n, a);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    release(p);
}

namespace memento {
namespace {

/** Allocations made by the global operator new during @p fn. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&fn)
{
    const std::uint64_t before = gAllocations.load();
    fn();
    return gAllocations.load() - before;
}

/** Bytes requested from the global operator new during @p fn. */
template <typename Fn>
std::uint64_t
bytesDuring(Fn &&fn)
{
    const std::uint64_t before = gBytes.load();
    fn();
    return gBytes.load() - before;
}

TEST(HeapTraffic, TheCounterSeesEveryForm)
{
    // Each pointer goes through a volatile, so no pair is elided.
    struct alignas(64) Wide
    {
        char bytes[64];
    };
    const std::uint64_t before = gAllocations.load();
    const std::uint64_t bytes_before = gBytes.load();
    int *volatile one = new int(1);
    delete one;
    int *volatile four = new int[4];
    delete[] four;
    int *volatile nothrow = new (std::nothrow) int(2);
    delete nothrow;
    Wide *volatile wide = new Wide;
    delete wide;
    Wide *volatile wides = new Wide[2];
    delete[] wides;
    EXPECT_EQ(gAllocations.load() - before, 5u);
    EXPECT_EQ(gBytes.load() - bytes_before,
              sizeof(int) * 6 + sizeof(Wide) * 3);
}

/**
 * The fleet stage's host state per invocation: an 8-byte Arrival and,
 * for a latency below 2^32 cycles, a 4-byte log entry. The constant
 * covers the cores, the resident instances and the digest's text.
 */
TEST(HeapTraffic, FleetStageRequestsTwelveBytesPerInvocation)
{
    constexpr std::uint64_t kInvocations = 200'000;
    constexpr std::uint64_t kSlack = 64 << 10;
    MachineConfig cfg = defaultConfig();
    cfg.fleet.invocations = kInvocations;
    cfg.fleet.ratePerSec = 1000.0;
    // Two 1 ms workloads on 8 cores at 1000 rps: no backlog, so every
    // latency is a few ms, far below 2^32 cycles.
    const std::vector<FleetProfile> profiles(
        2, FleetProfile{.id = "w",
                        .serviceCycles = 3'000'000,
                        .pages = 64,
                        .hotValidEntries = 8});

    std::vector<Arrival> arrivals;
    const std::uint64_t arrival_bytes = bytesDuring(
        [&] { arrivals = generateArrivals(cfg, profiles.size()); });
    FleetMetrics m;
    const std::uint64_t loop_bytes =
        bytesDuring([&] { m = simulateFleet(arrivals, profiles, cfg); });
    std::cout << "[ heap     ] fleet: " << kInvocations
              << " invocations, bytes per invocation: arrivals "
              << static_cast<double>(arrival_bytes) / kInvocations
              << ", event loop "
              << static_cast<double>(loop_bytes) / kInvocations << '\n';
    ASSERT_EQ(m.completed, kInvocations);
    ASSERT_LT(m.p999Cycles, cfg.msToCycles(50.0));
    EXPECT_LE(arrival_bytes, 8 * kInvocations + kSlack);
    EXPECT_LE(loop_bytes, 4 * kInvocations + kSlack);
}

/**
 * Paper workloads of each runtime: pymalloc (aes, dna), jemalloc (MI,
 * sqlite3) and the Go allocator (aes-go, invoke).
 */
class HeapTrafficTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(HeapTrafficTest, SimulationPathStaysOffTheHostHeap)
{
    const WorkloadSpec &spec = workloadById(GetParam());
    Trace trace;
    const std::uint64_t generated =
        allocationsDuring([&] { trace = TraceGenerator(spec).generate(); });
    const auto ops = static_cast<double>(trace.size());
    const auto per_op = [&](const MachineConfig &cfg) {
        return static_cast<double>(allocationsDuring([&] {
                   Experiment::runOne(spec, trace, cfg);
               })) /
               ops;
    };
    const double generate = static_cast<double>(generated) / ops;
    const double base = per_op(defaultConfig());
    const double memento = per_op(mementoConfig());
    std::cout << "[ heap     ] " << spec.id << ": " << trace.size()
              << " ops, allocations per op: generate " << generate
              << ", base replay " << base << ", memento replay " << memento
              << '\n';
    EXPECT_LE(generate, 0.01);
    EXPECT_LE(base, 0.04);
    EXPECT_LE(memento, 0.015);
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, HeapTrafficTest,
                         ::testing::Values("aes", "dna", "MI", "sqlite3",
                                           "aes-go", "invoke"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

} // namespace
} // namespace memento
