/**
 * @file
 * The paper's workload suite, §5: fourteen function benchmarks across
 * Python/C++/Golang, four long-running data-processing applications,
 * and three serverless-platform operations — each reduced to the
 * allocation statistics of §2.2 and synthesized back into operation
 * traces by TraceGenerator.
 *
 * Parameter provenance: size mixtures and lifetime parameters are set
 * so that the per-language aggregates reproduce Figs. 2–3 and Tables
 * 1–2; per-workload compute/touch parameters are set so that the
 * headline results (Figs. 8–14) reproduce the paper's shape. See
 * DESIGN.md §2 (substitutions) and EXPERIMENTS.md.
 */

#ifndef MEMENTO_WL_WORKLOADS_H
#define MEMENTO_WL_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"
#include "wl/distributions.h"

namespace memento {

/** Language runtime of a workload. */
enum class Language { Python, Cpp, Golang };

/** Workload grouping used by the paper's figures. */
enum class Domain { Function, DataProc, Platform };

/** Full parameterization of one synthetic workload. */
struct WorkloadSpec
{
    std::string id;          ///< Short name used in figures ("html").
    std::string description; ///< Where the workload comes from.
    Language lang = Language::Python;
    Domain domain = Domain::Function;

    /** Number of allocation events to synthesize. */
    std::uint64_t numAllocs = 100'000;
    /** Small-allocation size mixture. */
    SizeDistribution sizeDist;
    /** Bimodal lifetime model. */
    LifetimeModel lifetime;
    /** Fraction of allocations larger than 512 B. */
    double pLarge = 0.02;
    /** Size mixture for the large allocations. */
    SizeDistribution largeDist;
    /** Fraction of large allocations that are short-lived. */
    double pLargeShort = 0.9;

    /** Application instructions between allocation events. */
    InstCount computePerAlloc = 150;
    /** Distinct lines stored into a freshly allocated object. */
    unsigned touchStores = 2;
    /** Loads issued to recently allocated objects per event. */
    unsigned touchLoads = 2;

    /** Static (non-heap) working set the app keeps referencing. */
    std::uint64_t staticWsBytes = 1 << 20;
    /** Static working-set accesses per allocation event. */
    unsigned staticAccesses = 2;

    /**
     * RPC input+output bytes (functions fetch/store via Redis, §5);
     * 0 for a workload that makes no RPC.
     */
    std::uint64_t rpcBytes = 16 << 10;

    /**
     * Phase bursts: every burstEvery allocation events the workload
     * enters a scratch phase that allocates ~burstBytes of
     * burstObjSize objects, touches them once, and frees them all at
     * the end of the phase (request parsing/rendering scratch space).
     * Bursts are what make heaps grow and shrink, driving the
     * allocators' mmap/munmap/decay churn. 0 disables bursts.
     */
    std::uint64_t burstEvery = 0;
    std::uint64_t burstBytes = 0;
    std::uint64_t burstObjSize = 512;

    /** Seed for the workload's private RNG. */
    std::uint64_t seed = 1;
};

/** All 23 workloads in the paper's presentation order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** Lookup by id; fatal() when unknown. */
const WorkloadSpec &workloadById(const std::string &id);

/** All workloads of @p domain, in order. */
std::vector<WorkloadSpec> workloadsByDomain(Domain domain);

/** Display names. */
std::string languageName(Language lang);
std::string domainName(Domain domain);

} // namespace memento

#endif // MEMENTO_WL_WORKLOADS_H
