/**
 * @file
 * Unit tests for the content-addressed result store
 * (machine/result_store.h): exact round-trips, key sensitivity (and
 * the deliberate *in*sensitivity to sweep execution policy),
 * corruption quarantine, and the canonical-config tripwire that keeps
 * cache keys honest as MachineConfig grows.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "fleet/fleet.h"
#include "machine/result_store.h"
#include "sim/atomic_io.h"
#include "sim/config.h"
#include "sim/config_canon.h"
#include "sim/config_schema.h"
#include "sim/error.h"
#include "sim/json.h"
#include "test_util.h"
#include "val/digest.h"

namespace memento {
namespace {

namespace fs = std::filesystem;

/** A unique store directory per test, removed on destruction. */
class TempStoreDir
{
  public:
    explicit TempStoreDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("memento-store-test-" + std::to_string(::getpid()) +
                  "-" + tag + "-" + std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
    }

    ~TempStoreDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ResultStore
openStore(const TempStoreDir &dir)
{
    // Pin the code version so keys are stable within the test no
    // matter what state the enclosing git checkout is in.
    return ResultStore({.dir = dir.path(), .codeVersion = "test-sha"});
}

/** A RunResult with every field distinct and non-trivial. */
RunResult
richResult()
{
    RunResult r;
    r.workload = "aes";
    r.cycles = 0x1234'5678'9abc'def0ull;
    for (std::size_t i = 0; i < r.byCategory.size(); ++i)
        r.byCategory[i] = 1000 + i;
    r.instructions = 11;
    // Readings as tryRunOne records them: sorted by name, a gauge whose
    // end is below its start, and a counter first registered inside the
    // window (start 0).
    r.counters = {{"buddy.peak_pages", 12, 13},
                  {"dram.bytes", 14, 15},
                  {"hot.alloc_hits", 0, 16},
                  {"l1d.hits", 70017, 70018},
                  {"vm1.free_pages", 20, 19}};
    r.peakResidentPages = 18;
    r.hotValidEntries = 30;
    // A fraction that does not round-trip through short decimal: the
    // store must preserve the exact bit pattern.
    r.fragInactiveFraction = 0.1 + 0.2;
    r.digest = 0xfeed'beef'cafe'f00dull;
    return r;
}

TEST(ResultStore, RunCellRoundTripsExactly)
{
    TempStoreDir dir("roundtrip");
    ResultStore store = openStore(dir);

    const RunResult want = richResult();
    const CellKey key = store.runCellKey("aes", test::smallConfig(),
                                         RunOptions{});
    store.storeRun(key, want, 3);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_TRUE(got == want);
    EXPECT_EQ(attempts, 3u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.fragInactiveFraction),
              std::bit_cast<std::uint64_t>(want.fragInactiveFraction));

    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.quarantined, 0u);
}

TEST(ResultStore, CounterNoAccessorKnowsRoundTrips)
{
    TempStoreDir dir("unknown");
    ResultStore store = openStore(dir);

    // The store names no metric: a counter added tomorrow, read by no
    // accessor, travels like any other and reads back through delta().
    RunResult want = richResult();
    want.counters.push_back({"zz.new_metric", 40, 42});
    const CellKey key = store.runCellKey("aes", test::smallConfig(),
                                         RunOptions{});
    store.storeRun(key, want, 1);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_TRUE(got == want);
    EXPECT_EQ(got.delta("zz.new_metric"), 2u);
    EXPECT_EQ(got.end("zz.new_metric"), 42u);
    EXPECT_EQ(got.delta("never.registered"), 0u);
}

TEST(ResultStore, CachedFailureIsFirstClass)
{
    TempStoreDir dir("failure");
    ResultStore store = openStore(dir);

    RunResult want = richResult();
    want.error = RunError{ErrorCategory::Trace,
                          "corrupt record at op 120", 120};
    const CellKey key = store.runCellKey("bfs", test::smallConfig(),
                                         RunOptions{});
    store.storeRun(key, want, 4);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    ASSERT_TRUE(got.failed());
    EXPECT_EQ(got.error->category, ErrorCategory::Trace);
    EXPECT_EQ(got.error->message, "corrupt record at op 120");
    EXPECT_EQ(got.error->opIndex, 120u);
    EXPECT_EQ(attempts, 4u);
    EXPECT_TRUE(got == want);
}

TEST(ResultStore, MissingCellIsAMiss)
{
    TempStoreDir dir("miss");
    ResultStore store = openStore(dir);

    RunResult got;
    unsigned attempts = 0;
    EXPECT_FALSE(store.loadRun(CellKey{42}, got, attempts));
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(ResultStore, KeysSeparateEverythingThatChangesResults)
{
    TempStoreDir dir("keys");
    ResultStore store = openStore(dir);

    const MachineConfig cfg = test::smallConfig();
    const RunOptions ro;
    const CellKey base = store.runCellKey("aes", cfg, ro);

    // Workload.
    EXPECT_FALSE(base == store.runCellKey("bfs", cfg, ro));

    // Any result-affecting config field.
    MachineConfig bigger_l1 = cfg;
    bigger_l1.l1d.sizeBytes *= 2;
    EXPECT_FALSE(base == store.runCellKey("aes", bigger_l1, ro));
    MachineConfig memento_on = cfg;
    memento_on.memento.enabled = true;
    EXPECT_FALSE(base == store.runCellKey("aes", memento_on, ro));
    MachineConfig faulted = cfg;
    faulted.inject.traceCorruptAt = 7;
    EXPECT_FALSE(base == store.runCellKey("aes", faulted, ro));

    // Run options.
    RunOptions cold = ro;
    cold.coldStart = true;
    EXPECT_FALSE(base == store.runCellKey("aes", cfg, cold));
    RunOptions digest = ro;
    digest.computeDigest = true;
    EXPECT_FALSE(base == store.runCellKey("aes", cfg, digest));

    // Salt (the --digest second run).
    EXPECT_FALSE(base == store.runCellKey("aes", cfg, ro, "digest-rerun"));

    // Code version.
    ResultStore other({.dir = dir.path(), .codeVersion = "other-sha"});
    EXPECT_FALSE(base == other.runCellKey("aes", cfg, ro));
}

TEST(ResultStore, SweepPolicyAndStoreFaultsDoNotChangeKeys)
{
    TempStoreDir dir("policy");
    ResultStore store = openStore(dir);

    const MachineConfig cfg = test::smallConfig();
    const CellKey base = store.runCellKey("aes", cfg, RunOptions{});

    // The whole point of the store: a resumed or crash-injected sweep
    // must hit the cells its predecessor wrote.
    MachineConfig policy = cfg;
    policy.sweep.cacheDir = "/somewhere/else";
    policy.sweep.keepGoing = true;
    policy.inject.storeTornWriteAt = 3;
    policy.inject.storeKillAt = 5;
    EXPECT_EQ(canonicalConfigText(cfg), canonicalConfigText(policy));
    EXPECT_TRUE(base == store.runCellKey("aes", policy, RunOptions{}));
}

// ---- Corruption handling --------------------------------------------

/** Store one cell and return its on-disk path. */
std::string
storeOneCell(ResultStore &store, CellKey &key)
{
    key = store.runCellKey("aes", test::smallConfig(), RunOptions{});
    store.storeRun(key, richResult(), 1);
    return store.dir() + "/" + key.hex() + ".cell";
}

void
expectQuarantinedMiss(ResultStore &store, const CellKey &key)
{
    RunResult got;
    unsigned attempts = 0;
    EXPECT_FALSE(store.loadRun(key, got, attempts));
    EXPECT_EQ(store.stats().quarantined, 1u);
    // The damaged record moved aside; the slot is free for recompute.
    EXPECT_FALSE(fs::exists(store.dir() + "/" + key.hex() + ".cell"));
    EXPECT_TRUE(fs::exists(store.dir() + "/" + key.hex() + ".quarantined"));

    // Recompute + store + load works again.
    store.storeRun(key, richResult(), 2);
    EXPECT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_EQ(attempts, 2u);
}

TEST(ResultStore, BitFlipIsQuarantinedNotFatal)
{
    TempStoreDir dir("bitflip");
    ResultStore store = openStore(dir);
    CellKey key;
    const std::string path = storeOneCell(store, key);

    std::string record;
    ASSERT_TRUE(readFile(path, record));
    record[record.size() / 2] ^= 0x40; // Flip one payload bit.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << record;

    expectQuarantinedMiss(store, key);
}

TEST(ResultStore, TruncatedRecordIsQuarantined)
{
    TempStoreDir dir("trunc");
    ResultStore store = openStore(dir);
    CellKey key;
    const std::string path = storeOneCell(store, key);

    std::string record;
    ASSERT_TRUE(readFile(path, record));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << record.substr(0, record.size() / 2);

    expectQuarantinedMiss(store, key);
}

TEST(ResultStore, GarbageHeaderIsQuarantined)
{
    TempStoreDir dir("garbage");
    ResultStore store = openStore(dir);
    CellKey key;
    const std::string path = storeOneCell(store, key);

    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << "this is not a result cell\nat all";

    expectQuarantinedMiss(store, key);
}

/**
 * Write a record for @p key by hand: a well-formed header naming
 * @p cell_kind, with a correct checksum over @p payload.
 */
void
plantRecord(const ResultStore &store, const CellKey &key,
            std::string_view cell_kind, std::string_view payload)
{
    DigestBuilder d;
    d.add(payload);
    std::ofstream(store.dir() + "/" + key.hex() + ".cell",
                  std::ios::binary | std::ios::trunc)
        << "{\"schema_version\": " << kJsonSchemaVersion
        << ", \"kind\": \"result-cell\", \"cell_kind\": \"" << cell_kind
        << "\", \"key\": \"" << key.hex()
        << "\", \"payload_bytes\": " << payload.size()
        << ", \"checksum\": \"" << digestToHex(d.value()) << "\"}\n"
        << payload;
}

TEST(ResultStore, WrongCellKindIsDamage)
{
    TempStoreDir dir("kind");
    ResultStore store = openStore(dir);
    CellKey stored;
    std::string record;
    ASSERT_TRUE(readFile(storeOneCell(store, stored), record));
    const std::string payload = record.substr(record.find('\n') + 1);

    // The planted record is faithful: as a "run" cell it loads.
    RunResult got;
    unsigned attempts = 0;
    plantRecord(store, CellKey{7}, "run", payload);
    EXPECT_TRUE(store.loadRun(CellKey{7}, got, attempts));

    // The store holds only run cells: the same payload under any other
    // kind is damage.
    plantRecord(store, CellKey{8}, "fleet", payload);
    EXPECT_FALSE(store.loadRun(CellKey{8}, got, attempts));
    EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST(ResultStore, UnparseableRunPayloadIsQuarantined)
{
    TempStoreDir dir("payload");
    ResultStore store = openStore(dir);
    CellKey stored;
    std::string record;
    ASSERT_TRUE(readFile(storeOneCell(store, stored), record));
    const std::string good = record.substr(record.find('\n') + 1);

    // Structurally valid cells (header + checksum OK) whose payload is
    // not a RunResult: loadRun must quarantine each.
    auto edit = [&](std::string_view from, std::string_view to) {
        std::string p = good;
        const std::size_t at = p.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        if (at != std::string::npos)
            p.replace(at, from.size(), to);
        return p;
    };
    const std::vector<std::string> payloads = {
        "{\"workload\": \"aes\"}",
        // A reading out of order, and one duplicated.
        edit("\"dram.bytes\"", "\"zz.bytes\""),
        edit("\"hot.alloc_hits\"", "\"dram.bytes\""),
        // Non-integer values.
        edit("70017,", "70017.5,"),
        edit("70017,", "-70017,"),
        edit("70017,", "\"70017\","),
        // A reading that is not a [name, start, end] triple.
        edit("70017,", ""),
        // No counters at all.
        edit("\"counters\"", "\"countres\""),
    };

    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const CellKey key{100 + i};
        plantRecord(store, key, "run", payloads[i]);
        RunResult got;
        unsigned attempts = 0;
        EXPECT_FALSE(store.loadRun(key, got, attempts)) << payloads[i];
    }
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.quarantined, payloads.size());
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, payloads.size());
}

TEST(ResultStore, NoTemporaryFilesLeftBehind)
{
    TempStoreDir dir("tmpfiles");
    ResultStore store = openStore(dir);

    for (int i = 0; i < 8; ++i) {
        RunResult r = richResult();
        r.cycles = i;
        store.storeRun(CellKey{static_cast<std::uint64_t>(i)}, r, 1);
    }

    std::size_t cells = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir.path())) {
        EXPECT_EQ(e.path().extension(), ".cell")
            << "unexpected file in store: " << e.path();
        ++cells;
    }
    EXPECT_EQ(cells, 8u);
    EXPECT_EQ(store.listCellFiles().size(), 8u);
}

// ---- Revalidation ----------------------------------------------------

TEST(ResultStore, RevalidateSampleIsDeterministicInTheKey)
{
    TempStoreDir dir("sample");
    ResultStore store = openStore(dir);

    EXPECT_FALSE(store.inRevalidateSample(CellKey{12}, 0));
    EXPECT_TRUE(store.inRevalidateSample(CellKey{12}, 1));
    EXPECT_TRUE(store.inRevalidateSample(CellKey{12}, 4));
    EXPECT_FALSE(store.inRevalidateSample(CellKey{13}, 4));
    // Stable across store instances (it is pure in the key).
    ResultStore other({.dir = dir.path(), .codeVersion = "test-sha"});
    EXPECT_EQ(store.inRevalidateSample(CellKey{12}, 4),
              other.inRevalidateSample(CellKey{12}, 4));
}

// ---- The canonical-config tripwire ----------------------------------

/**
 * If this assertion fires, a member was added to (or removed from)
 * MachineConfig. A value a user can set gets one schema entry
 * (sim/config_schema.cc), whose scope puts it in the cell key, the
 * fleet digest, or neither; the loop below then covers it. A model
 * parameter no key sets is a named constant next to its reader
 * instead, covered by the code version. Then update the expected size
 * here. A member without a schema entry is in neither canonical text,
 * so it would silently alias cache cells that compute different
 * results.
 */
TEST(CanonCoversConfig, SizeofTripwire)
{
    EXPECT_EQ(sizeof(MachineConfig), 568u)
        << "MachineConfig changed: give the member a schema entry before "
           "bumping this constant (see the comment above this test)";
}

/** A value of @p info's type that renders unlike @p current. */
ConfigValue
otherValue(const ConfigKeyInfo &info, const std::string &current)
{
    ConfigValue v;
    switch (info.type) {
      case ConfigType::U64:
      case ConfigType::U32:
        v.u64 = static_cast<std::uint64_t>(info.minValue);
        if (std::to_string(v.u64) == current)
            ++v.u64;
        break;
      case ConfigType::F64:
        v.f64 = info.minValue;
        if (v.f64 == std::stod(current))
            v.f64 += 1;
        break;
      case ConfigType::Bool:
        v.boolean = current != "1";
        break;
      case ConfigType::String:
        v.str = current + "-other";
        break;
    }
    return v;
}

TEST(CanonCoversConfig, EveryResultAffectingSectionIsSerialized)
{
    // Move each schema entry off its value: the cell-key text must
    // change exactly for the Cell entries, the fleet text exactly for
    // the fleet.* entries, and no other entry's rendering may move (each
    // entry owns its own field).
    const MachineConfig base = test::smallConfig();
    const std::string cell = canonicalConfigText(base);
    const std::string fleet = fleetCanonicalText(base);
    const auto rendered = [](const MachineConfig &cfg,
                             const ConfigKeyInfo &info) {
        std::string text;
        info.render(cfg, text);
        return text;
    };

    std::size_t fleet_keys = 0, policy_keys = 0;
    for (const ConfigKeyInfo &info : configSchema()) {
        SCOPED_TRACE(info.name);
        fleet_keys += info.scope == ConfigScope::Fleet;
        policy_keys += info.scope == ConfigScope::Policy;
        MachineConfig cfg = base;
        info.apply(cfg, otherValue(info, rendered(base, info)));
        ASSERT_NE(rendered(cfg, info), rendered(base, info));
        EXPECT_EQ(canonicalConfigText(cfg) != cell,
                  info.scope == ConfigScope::Cell);
        EXPECT_EQ(fleetCanonicalText(cfg) != fleet,
                  info.scope == ConfigScope::Fleet);
        for (const ConfigKeyInfo &other : configSchema()) {
            if (&other != &info) {
                EXPECT_EQ(rendered(cfg, other), rendered(base, other))
                    << other.name;
            }
        }
    }
    // sweep.cache_dir, sweep.keep_going and the two inject.store_* keys
    // steer the sweep; the fleet digest covers the 11 fleet.* keys.
    EXPECT_EQ(policy_keys, 4u);
    EXPECT_EQ(fleet_keys, 11u);
}

} // namespace
} // namespace memento
