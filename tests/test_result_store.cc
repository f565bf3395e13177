/**
 * @file
 * Unit tests for the content-addressed result store
 * (machine/result_store.h): exact round-trips, key sensitivity (and
 * the deliberate *in*sensitivity to sweep execution policy),
 * corruption quarantine of every record shape the loader rejects, and
 * the canonical-config tripwire that keeps cache keys honest as
 * MachineConfig grows.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "fleet/fleet.h"
#include "machine/result_store.h"
#include "sim/atomic_io.h"
#include "sim/config.h"
#include "sim/config_canon.h"
#include "sim/config_schema.h"
#include "sim/error.h"
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

/** Store one cell and return its on-disk path. */
std::string
storeOneCell(ResultStore &store, CellKey &key)
{
    key = store.runCellKey("aes", test::smallConfig(), RunOptions{});
    store.storeRun(key, richResult(), 1);
    return store.dir() + "/" + key.hex() + ".cell";
}

TEST(ResultStore, RunCellRoundTripsExactly)
{
    TempStoreDir dir("roundtrip");
    ResultStore store = openStore(dir);

    const RunResult want = richResult();
    const CellKey key = store.runCellKey("aes", test::smallConfig(),
                                         RunOptions{});
    store.storeRun(key, want, 1);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_TRUE(got == want);
    EXPECT_EQ(attempts, 1u);
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
    store.storeRun(key, want, 1);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    ASSERT_TRUE(got.failed());
    EXPECT_EQ(got.error->category, ErrorCategory::Trace);
    EXPECT_EQ(got.error->message, "corrupt record at op 120");
    EXPECT_EQ(got.error->opIndex, 120u);
    EXPECT_EQ(attempts, 1u);
    EXPECT_TRUE(got == want);
}

TEST(ResultStore, ErrorMessageRoundTripsAnyBytes)
{
    TempStoreDir dir("message");
    ResultStore store = openStore(dir);

    // The message runs to the end of the record: newlines, tabs, bytes
    // that are not UTF-8, and text that reads like a record line all
    // come back verbatim.
    RunResult want = richResult();
    want.error = RunError{ErrorCategory::Internal,
                          "first line\nsecond\tline \xc3\xa9\xff\x01\n"
                          "counter x 1 2\nerror\n",
                          SimError::kNoOpIndex};
    const CellKey key = store.runCellKey("aes", test::smallConfig(),
                                         RunOptions{});
    store.storeRun(key, want, 1);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_TRUE(got == want);
    EXPECT_EQ(got.error->message, want.error->message);
}

TEST(ResultStore, ExtremeValuesRoundTrip)
{
    TempStoreDir dir("extreme");
    ResultStore store = openStore(dir);

    // Every numeric field at both ends of its range, no counters, an
    // empty workload name and an empty failure message.
    RunResult want;
    want.cycles = UINT64_MAX;
    for (std::size_t i = 0; i < want.byCategory.size(); ++i)
        want.byCategory[i] = i % 2 == 0 ? UINT64_MAX : 0;
    want.instructions = 0;
    want.peakResidentPages = UINT64_MAX;
    want.hotValidEntries = 0;
    want.digest = UINT64_MAX;
    want.error = RunError{ErrorCategory::OutOfMemory, "", 0};
    const CellKey key{0};
    store.storeRun(key, want, 1);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_TRUE(got == want);
    EXPECT_TRUE(got.counters.empty());
    ASSERT_TRUE(got.failed());
    EXPECT_EQ(got.error->message, "");
    EXPECT_EQ(got.error->opIndex, 0u);

    // Counter readings at the extremes as well.
    want.error.reset();
    want.counters = {{"a", UINT64_MAX, 0}, {"b", 0, UINT64_MAX}};
    store.storeRun(CellKey{1}, want, 1);
    ASSERT_TRUE(store.loadRun(CellKey{1}, got, attempts));
    EXPECT_TRUE(got == want);
}

TEST(ResultStore, FragmentationFractionKeepsItsBitPattern)
{
    TempStoreDir dir("frag");
    ResultStore store = openStore(dir);

    // Values that a decimal round-trip would lose or merge: the sign of
    // zero, a NaN payload, infinity and the smallest subnormal.
    const std::vector<double> values = {
        -0.0, std::bit_cast<double>(0x7ff8'0000'dead'beefull),
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max()};
    for (std::size_t i = 0; i < values.size(); ++i) {
        RunResult want = richResult();
        want.fragInactiveFraction = values[i];
        store.storeRun(CellKey{i}, want, 1);

        RunResult got;
        unsigned attempts = 0;
        ASSERT_TRUE(store.loadRun(CellKey{i}, got, attempts)) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.fragInactiveFraction),
                  std::bit_cast<std::uint64_t>(values[i]))
            << i;
    }
}

TEST(ResultStore, AttemptsReadBackAsOne)
{
    TempStoreDir dir("attempts");
    ResultStore store = openStore(dir);

    // The record keeps no attempt count: the engine never retries, so
    // whatever the caller passes, a hit reports one attempt.
    CellKey key;
    const std::string path = storeOneCell(store, key);
    store.storeRun(key, richResult(), 5);

    RunResult got;
    unsigned attempts = 0;
    ASSERT_TRUE(store.loadRun(key, got, attempts));
    EXPECT_EQ(attempts, 1u);
    std::string record;
    ASSERT_TRUE(readFile(path, record));
    EXPECT_EQ(record.find("attempts"), std::string::npos);
}

TEST(ResultStore, StoredRecordIsOneLinePerField)
{
    TempStoreDir dir("format");
    ResultStore store = openStore(dir);
    CellKey key;
    std::string record;
    ASSERT_TRUE(readFile(storeOneCell(store, key), record));

    // The record format (DESIGN section 9), field by field, for
    // richResult(): fixed line order, decimal values, the fraction as
    // its bit pattern, counters by name and a bare error line last.
    const RunResult r = richResult();
    std::string payload = "workload aes\ncycles 1311768467463790320\n"
                          "by_category";
    for (std::size_t i = 0; i < kNumCycleCategories; ++i) {
        payload += ' ';
        payload += std::to_string(1000 + i);
    }
    payload += "\ninstructions 11\npeak_resident_pages 18\n"
               "hot_valid_entries 30\nfrag_inactive_bits " +
               std::to_string(
                   std::bit_cast<std::uint64_t>(r.fragInactiveFraction)) +
               "\ndigest 18369548392226287629\n"
               "counter buddy.peak_pages 12 13\n"
               "counter dram.bytes 14 15\n"
               "counter hot.alloc_hits 0 16\n"
               "counter l1d.hits 70017 70018\n"
               "counter vm1.free_pages 20 19\n"
               "error";
    DigestBuilder d;
    d.add(std::string_view(payload));
    EXPECT_EQ(record, "memento-run-cell 1 " + key.hex() + " " +
                          std::to_string(payload.size()) + " " +
                          digestToHex(d.value()) + "\n" + payload);
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
    store.storeRun(key, richResult(), 1);
    EXPECT_TRUE(store.loadRun(key, got, attempts));
}

TEST(ResultStore, BitFlipIsQuarantinedNotFatal)
{
    TempStoreDir dir("bitflip");
    ResultStore store = openStore(dir);
    CellKey key;
    const std::string path = storeOneCell(store, key);

    std::string record;
    ASSERT_TRUE(readFile(path, record));
    // Flip one payload bit that leaves a well-formed record (a counter
    // value 70017 -> 70016): only the checksum can see it.
    record[record.find(" 70017 ") + 5] ^= 0x01;
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
 * Write a record for @p key by hand: a header that starts with
 * @p tag_version and is otherwise correct for @p payload.
 */
void
plantRecord(const ResultStore &store, const CellKey &key,
            std::string_view tag_version, std::string_view payload)
{
    DigestBuilder d;
    d.add(payload);
    std::ofstream(store.dir() + "/" + key.hex() + ".cell",
                  std::ios::binary | std::ios::trunc)
        << tag_version << ' ' << key.hex() << ' ' << payload.size() << ' '
        << digestToHex(d.value()) << '\n'
        << payload;
}

/** The payload of the record storeOneCell() writes. */
std::string
goodPayload(ResultStore &store)
{
    CellKey stored;
    std::string record;
    EXPECT_TRUE(readFile(storeOneCell(store, stored), record));
    return record.substr(record.find('\n') + 1);
}

TEST(ResultStore, WrongTagOrVersionIsDamage)
{
    TempStoreDir dir("tag");
    ResultStore store = openStore(dir);
    const std::string payload = goodPayload(store);

    // The planted record is faithful: under the run-cell tag it loads.
    RunResult got;
    unsigned attempts = 0;
    plantRecord(store, CellKey{7}, "memento-run-cell 1", payload);
    EXPECT_TRUE(store.loadRun(CellKey{7}, got, attempts));

    // The same payload under another tag or version is damage.
    plantRecord(store, CellKey{8}, "memento-fleet-cell 1", payload);
    EXPECT_FALSE(store.loadRun(CellKey{8}, got, attempts));
    plantRecord(store, CellKey{9}, "memento-run-cell 2", payload);
    EXPECT_FALSE(store.loadRun(CellKey{9}, got, attempts));
    EXPECT_EQ(store.stats().quarantined, 2u);
}

TEST(ResultStore, RecordUnderAnotherKeyIsDamage)
{
    TempStoreDir dir("key");
    ResultStore store = openStore(dir);
    CellKey key;
    const std::string path = storeOneCell(store, key);

    // An intact record copied to another cell's name answers for the
    // wrong key: the header's key must match the file's.
    const CellKey other{key.digest + 1};
    fs::copy_file(path, store.dir() + "/" + other.hex() + ".cell");
    RunResult got;
    unsigned attempts = 0;
    EXPECT_FALSE(store.loadRun(other, got, attempts));
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_TRUE(store.loadRun(key, got, attempts));
}

TEST(ResultStore, HeaderMustDescribeThePayloadExactly)
{
    TempStoreDir dir("header");
    ResultStore store = openStore(dir);
    const std::string payload = goodPayload(store);
    DigestBuilder d;
    d.add(std::string_view(payload));
    const std::string sum = digestToHex(d.value());
    std::string upper_sum = sum;
    for (char &c : upper_sum)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    ASSERT_NE(upper_sum, sum);

    // Each record carries the faithful payload under a header that is
    // off in one field: the length one short, one over, zero-padded or
    // covering a trailing byte; the checksum in capitals or of other
    // bytes; a field separated by two spaces; no newline after it.
    const std::string n = std::to_string(payload.size());
    const std::string n_less = std::to_string(payload.size() - 1);
    const std::string n_more = std::to_string(payload.size() + 1);
    DigestBuilder other;
    other.add(std::string_view("not the payload"));
    const std::vector<std::pair<std::string, std::string>> records = {
        {n_less + " " + sum + "\n", payload},
        {n_more + " " + sum + "\n", payload},
        {"0" + n + " " + sum + "\n", payload},
        {n + " " + sum + "\n", payload + "\n"},
        {n + " " + upper_sum + "\n", payload},
        {n + " " + digestToHex(other.value()) + "\n", payload},
        {n + "  " + sum + "\n", payload},
        {n + " " + sum + " ", payload},
    };

    for (std::size_t i = 0; i < records.size(); ++i) {
        const CellKey key{200 + i};
        std::ofstream(store.dir() + "/" + key.hex() + ".cell",
                      std::ios::binary | std::ios::trunc)
            << "memento-run-cell 1 " << key.hex() << ' '
            << records[i].first << records[i].second;
        RunResult got;
        unsigned attempts = 0;
        EXPECT_FALSE(store.loadRun(key, got, attempts)) << records[i].first;
    }
    EXPECT_EQ(store.stats().quarantined, records.size());
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(ResultStore, UnparseableRunPayloadIsQuarantined)
{
    TempStoreDir dir("payload");
    ResultStore store = openStore(dir);
    const std::string good = goodPayload(store);

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
    // The last by_category value, with the newline that ends its line.
    const std::string last_category =
        " " + std::to_string(1000 + kNumCycleCategories - 1) + "\n";
    std::string renamed_counters = good;
    for (std::size_t at = 0;
         (at = renamed_counters.find("\ncounter ", at)) != std::string::npos;)
        renamed_counters.replace(++at, 7, "countre");

    const std::vector<std::string> payloads = {
        "workload aes",
        // A reading out of order, and one duplicated.
        edit("counter dram.bytes", "counter zz.bytes"),
        edit("counter hot.alloc_hits", "counter dram.bytes"),
        // Readings that are not two unsigned decimals.
        edit(" 70017 ", " 70017.5 "),
        edit(" 70017 ", " -70017 "),
        edit(" 70017 ", " seventy "),
        edit(" 70017 ", " "),
        // No counter lines at all, only lines under another name.
        renamed_counters,
        // Trailing junk, overflow, and a sign.
        edit("instructions 11", "instructions 11x"),
        edit("instructions 11", "instructions 18446744073709551616"),
        edit("instructions 11", "instructions +11"),
        // One category value too few, and one too many.
        edit(last_category, "\n"),
        edit(last_category, last_category.substr(0, last_category.size() - 1) +
                                " 7\n"),
        // A scalar line missing, repeated, and an unknown line.
        edit("hot_valid_entries 30\n", ""),
        edit("hot_valid_entries 30\n",
             "hot_valid_entries 30\nhot_valid_entries 30\n"),
        edit("\ndigest ", "\ncolour 7\ndigest "),
        // A failure with an unknown category, and with no op index.
        edit("\nerror", "\nerror bogus 1 message"),
        edit("\nerror", "\nerror trace message"),
    };

    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const CellKey key{100 + i};
        plantRecord(store, key, "memento-run-cell 1", payloads[i]);
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
