/**
 * @file
 * Host heap traffic on the simulation path.
 *
 * This executable replaces the global operator new and delete (plain,
 * sized, aligned and nothrow forms) with counting forwards to malloc
 * and free, and bounds the allocations per trace op of trace synthesis
 * and of a baseline and a Memento replay over paper workloads of every
 * language. A profiler that does not sample libc cannot see this cost,
 * so the bound lives here. It is its own executable because the
 * replacement is program-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "machine/experiment.h"
#include "sim/config.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void *
countedMalloc(std::size_t size) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedMalloc(std::size_t size, std::align_val_t align) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
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

TEST(HeapTraffic, TheCounterSeesEveryForm)
{
    // Each pointer goes through a volatile, so no pair is elided.
    struct alignas(64) Wide
    {
        char bytes[64];
    };
    const std::uint64_t before = gAllocations.load();
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
    EXPECT_LE(base, 0.05);
    EXPECT_LE(memento, 0.02);
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
