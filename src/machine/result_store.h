/**
 * @file
 * Content-addressed on-disk result store: the persistence layer that
 * makes sweeps crash-safe and resumable.
 *
 * Every sweep cell (one workload run under one configuration) is keyed
 * by an FNV-1a digest of (workload id, canonical configuration text,
 * run options, code version) — see sim/config_canon.h — so a cache hit
 * is only possible when *nothing* that could change the result has
 * changed. Each cell is one run outcome in one file
 * `<16-hex-key>.cell` in the store directory: a header line, then N
 * payload bytes with one `name value...` line per RunResult field
 * (DESIGN.md §9 lists them and every shape the loader rejects):
 *
 *     memento-run-cell 1 <16hex key> <N> <16hex checksum>\n
 *     workload aes\ncycles 123\n...\ncounter l1d.hits 5 9\n...\nerror
 *
 * The checksum is FNV-1a over the exact payload bytes, and the whole
 * record is written via writeFileAtomic() (temp + fsync + rename), so
 * a crash at any instant leaves either no file or a complete valid
 * record under the final name. Defense in depth: even if a torn or
 * bit-flipped record *does* appear (hardware, filesystem bugs, or the
 * inject.store_torn_write test fault), loading detects the damage —
 * a header that is not exactly the one the payload implies, or a
 * payload that is not a RunResult — quarantines the file (renamed to
 * `<key>.quarantined`) and reports a miss, so the cell is simply
 * recomputed. Corruption is never fatal.
 *
 * Same key => same content, and every record is validated on read, so
 * combining two stores is copying one's `*.cell` files into the other.
 *
 * Thread safety: all public methods are safe to call concurrently;
 * distinct cells go to distinct files and counters are mutex-guarded.
 */

#ifndef MEMENTO_MACHINE_RESULT_STORE_H
#define MEMENTO_MACHINE_RESULT_STORE_H

#include <compare>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "machine/experiment.h"
#include "machine/function_executor.h"
#include "sim/config.h"
#include "sim/thread_annotations.h"

namespace memento {

/** Content address of one cell (16-hex-digit FNV-1a digest). */
struct CellKey
{
    std::uint64_t digest = 0;

    std::string hex() const;

    bool operator==(const CellKey &) const = default;
};

/**
 * Everything that makes two run cells the same cell: the workload, the
 * canonical configuration text, and the result-affecting run options.
 * The store's keys digest exactly these fields, and sweeps that share
 * cells (an/figures.h) deduplicate on them.
 */
struct CellIdentity
{
    std::string workload;
    std::string configText;
    bool coldStart = false;
    bool computeDigest = false;

    auto operator<=>(const CellIdentity &) const = default;
};

/** The identity of the cell that runs @p workload under @p cfg, @p opts. */
CellIdentity cellIdentity(const std::string &workload,
                          const MachineConfig &cfg, const RunOptions &opts);

struct ResultStoreOptions
{
    /** Store directory (created on construction if absent). */
    std::string dir;
    /**
     * Code version folded into every key; defaults to
     * codeVersionString(). Tests override it to pin keys.
     */
    std::string codeVersion;
    /** Crash injection: tear the Nth storeRun() in half and _exit. */
    std::uint64_t tornWriteAt = 0;
    /** Crash injection: _exit right after the Nth completed store. */
    std::uint64_t killAt = 0;
};

/** Hit/miss/corruption counters (reported to stderr, never stdout). */
struct StoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t revalidated = 0;
};

class ResultStore
{
  public:
    /**
     * Opens (creating if needed) the store at opts.dir.
     * Throws SimError(Config) when the directory cannot be created.
     */
    explicit ResultStore(ResultStoreOptions opts);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &dir() const { return opts_.dir; }

    // ---- Key derivation ----

    /** Key of one run cell. @p salt disambiguates deliberate re-runs. */
    CellKey runCellKey(const std::string &workload,
                       const MachineConfig &cfg, const RunOptions &opts,
                       std::string_view salt = {}) const;

    // ---- Run cells ----

    /**
     * Load the cell @p key into @p out. Returns true on a validated
     * hit. A missing file is a miss; a damaged record (bad header,
     * length or checksum, or a payload that does not parse as a
     * RunResult) is quarantined and reported as a miss. The stored
     * result may itself be a captured failure (out.failed()) — cached
     * failures are first-class. A hit sets @p attempts to 1: the sweep
     * engine never retries, so records do not carry it.
     */
    bool loadRun(const CellKey &key, RunResult &out, unsigned &attempts);

    /**
     * Atomically persist one run outcome (success or captured failure;
     * last writer wins). @p attempts is not recorded.
     */
    void storeRun(const CellKey &key, const RunResult &result,
                  unsigned attempts);

    // ---- Revalidation / maintenance ----

    /**
     * True when @p key falls in the 1-in-@p every revalidation sample
     * (0 = never, 1 = always). Deterministic in the key.
     */
    bool inRevalidateSample(const CellKey &key, unsigned every) const;

    /** Move a damaged record aside; harmless if already gone. */
    void quarantine(const CellKey &key);

    /** Count a successful revalidation (stats only). */
    void noteRevalidated();

    /** Sorted `<key>.cell` file names in this store. */
    std::vector<std::string> listCellFiles() const;

    StoreStats stats() const;

  private:
    std::string cellPath(const CellKey &key) const;

    ResultStoreOptions opts_ MEMENTO_READONLY_AFTER_INIT;
    mutable std::mutex mu_;
    StoreStats stats_ MEMENTO_GUARDED_BY(mu_);
    /** storeRun() invocation counter driving the crash injections. */
    std::uint64_t storeCounter_ MEMENTO_GUARDED_BY(mu_) = 0;
};

} // namespace memento

#endif // MEMENTO_MACHINE_RESULT_STORE_H
