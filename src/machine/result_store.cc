#include "machine/result_store.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <sstream>

#include <unistd.h>
#include <fcntl.h>

#include "sim/atomic_io.h"
#include "sim/config_canon.h"
#include "sim/error.h"
#include "sim/json.h"
#include "val/digest.h"

namespace memento {
namespace {

namespace fs = std::filesystem;

std::uint64_t
checksumOf(std::string_view payload)
{
    DigestBuilder d;
    d.add(payload);
    return d.value();
}

/** The one cell kind the store holds (the header's `cell_kind`). */
constexpr std::string_view kRunCellKind = "run";

std::string
headerLine(std::string_view key_hex, std::size_t payload_bytes,
           std::uint64_t checksum)
{
    std::ostringstream os;
    os << "{\"schema_version\": " << kJsonSchemaVersion
       << ", \"kind\": \"result-cell\", \"cell_kind\": \""
       << kRunCellKind << "\", \"key\": \"" << key_hex
       << "\", \"payload_bytes\": " << payload_bytes
       << ", \"checksum\": \"" << digestToHex(checksum) << "\"}";
    return os.str();
}

/**
 * Validate one record's bytes: a run cell whose header names
 * @p key_hex. Fills @p payload (a view into @p record) on success.
 */
bool
validateRecord(const std::string &record, std::string_view key_hex,
               std::string_view &payload)
{
    const std::size_t nl = record.find('\n');
    if (nl == std::string::npos)
        return false;

    JsonValue header;
    std::string err;
    if (!parseJson(std::string_view(record).substr(0, nl), header, err) ||
        !header.isObject())
        return false;

    const JsonValue *version = header.find("schema_version");
    const JsonValue *kind = header.find("kind");
    const JsonValue *ckind = header.find("cell_kind");
    const JsonValue *key = header.find("key");
    const JsonValue *bytes = header.find("payload_bytes");
    const JsonValue *checksum = header.find("checksum");
    if (version == nullptr || !version->isNumber() || !version->isInteger ||
        version->u64 != kJsonSchemaVersion)
        return false;
    if (kind == nullptr || !kind->isString() || kind->str != "result-cell")
        return false;
    if (ckind == nullptr || !ckind->isString() || ckind->str != kRunCellKind)
        return false;
    if (key == nullptr || !key->isString() || key->str != key_hex)
        return false;
    if (bytes == nullptr || !bytes->isNumber() || !bytes->isInteger)
        return false;
    if (checksum == nullptr || !checksum->isString())
        return false;

    const std::string_view body = std::string_view(record).substr(nl + 1);
    if (body.size() != bytes->u64)
        return false;
    if (digestToHex(checksumOf(body)) != checksum->str)
        return false;

    payload = body;
    return true;
}

// ---- RunResult payload (de)serialization -----------------------------

/** Doubles travel as exact bit patterns: cache hits must be bit-true. */
std::uint64_t
doubleBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
bitsToDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

bool
isU64(const JsonValue &v)
{
    return v.isNumber() && v.isInteger;
}

bool
getU64(const JsonValue &obj, std::string_view name, std::uint64_t &out)
{
    const JsonValue *v = obj.find(name);
    if (v == nullptr || !isU64(*v))
        return false;
    out = v->u64;
    return true;
}

/**
 * Read `"counters": [["name", start, end], ...]`. Names must be
 * strictly ascending, as the registry keeps them; anything else is
 * damage.
 */
bool
parseCounters(const JsonValue &obj, std::vector<CounterReading> &out)
{
    const JsonValue *list = obj.find("counters");
    if (list == nullptr || !list->isArray())
        return false;
    out.clear();
    out.reserve(list->items.size());
    for (const JsonValue &item : list->items) {
        if (!item.isArray() || item.items.size() != 3 ||
            !item.items[0].isString() || !isU64(item.items[1]) ||
            !isU64(item.items[2]))
            return false;
        const std::string &name = item.items[0].str;
        if (!out.empty() && !(out.back().name < name))
            return false;
        out.push_back({name, item.items[1].u64, item.items[2].u64});
    }
    return true;
}

bool
getString(const JsonValue &obj, std::string_view name, std::string &out)
{
    const JsonValue *v = obj.find(name);
    if (v == nullptr || !v->isString())
        return false;
    out = v->str;
    return true;
}

std::string
runPayload(const RunResult &r, unsigned attempts)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.member("workload", std::string_view(r.workload));
    w.member("cycles", r.cycles);
    w.key("by_category").beginArray();
    for (const Cycles c : r.byCategory)
        w.value(c);
    w.endArray();
    w.member("instructions", r.instructions);
    w.key("counters").beginArray();
    for (const CounterReading &c : r.counters) {
        w.beginArray();
        w.value(std::string_view(c.name)).value(c.start).value(c.end);
        w.endArray();
    }
    w.endArray();
    w.member("peak_resident_pages", r.peakResidentPages);
    w.member("hot_valid_entries", r.hotValidEntries);
    w.member("frag_inactive_bits", doubleBits(r.fragInactiveFraction));
    if (r.error.has_value()) {
        w.key("error").beginObject();
        w.member("category", errorCategoryName(r.error->category));
        w.member("message", std::string_view(r.error->message));
        w.member("op_index", r.error->opIndex);
        w.endObject();
    } else {
        w.key("error").valueNull();
    }
    w.member("digest", r.digest);
    w.member("attempts", static_cast<std::uint64_t>(attempts));
    w.endObject();
    return os.str();
}

bool
parseRunPayload(std::string_view payload, RunResult &r, unsigned &attempts)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(payload, doc, err) || !doc.isObject())
        return false;

    if (!getString(doc, "workload", r.workload))
        return false;
    if (!getU64(doc, "cycles", r.cycles))
        return false;

    const JsonValue *cats = doc.find("by_category");
    if (cats == nullptr || !cats->isArray() ||
        cats->items.size() != r.byCategory.size())
        return false;
    for (std::size_t i = 0; i < r.byCategory.size(); ++i) {
        const JsonValue &c = cats->items[i];
        if (!isU64(c))
            return false;
        r.byCategory[i] = c.u64;
    }

    std::uint64_t frag_bits = 0;
    if (!getU64(doc, "instructions", r.instructions) ||
        !parseCounters(doc, r.counters) ||
        !getU64(doc, "peak_resident_pages", r.peakResidentPages) ||
        !getU64(doc, "hot_valid_entries", r.hotValidEntries) ||
        !getU64(doc, "frag_inactive_bits", frag_bits) ||
        !getU64(doc, "digest", r.digest))
        return false;
    r.fragInactiveFraction = bitsToDouble(frag_bits);

    const JsonValue *error = doc.find("error");
    if (error == nullptr)
        return false;
    if (error->type == JsonValue::Type::Null) {
        r.error.reset();
    } else if (error->isObject()) {
        RunError re;
        std::string category;
        if (!getString(*error, "category", category) ||
            !errorCategoryFromName(category, re.category) ||
            !getString(*error, "message", re.message) ||
            !getU64(*error, "op_index", re.opIndex))
            return false;
        r.error = std::move(re);
    } else {
        return false;
    }

    std::uint64_t attempts64 = 0;
    if (!getU64(doc, "attempts", attempts64) || attempts64 == 0 ||
        attempts64 > 1u << 20)
        return false;
    attempts = static_cast<unsigned>(attempts64);
    return true;
}

} // namespace

std::string
CellKey::hex() const
{
    return digestToHex(digest);
}

ResultStore::ResultStore(ResultStoreOptions opts) : opts_(std::move(opts))
{
    if (opts_.codeVersion.empty())
        opts_.codeVersion = codeVersionString();
    std::error_code ec;
    fs::create_directories(opts_.dir, ec);
    sim_error_if(ec || !fs::is_directory(opts_.dir), ErrorCategory::Config,
                 "cannot create result-store directory ", opts_.dir,
                 ec ? ": " + ec.message() : std::string());
}

CellIdentity
cellIdentity(const std::string &workload, const MachineConfig &cfg,
             const RunOptions &opts)
{
    return {workload, canonicalConfigText(cfg), opts.coldStart,
            opts.chargeRpc, opts.computeDigest};
}

CellKey
ResultStore::runCellKey(const std::string &workload,
                        const MachineConfig &cfg, const RunOptions &opts,
                        std::string_view salt) const
{
    const CellIdentity id = cellIdentity(workload, cfg, opts);
    DigestBuilder d;
    d.add(std::string_view("memento-run-cell"));
    d.add(std::string_view(opts_.codeVersion));
    d.add(std::string_view(id.workload));
    d.add(std::string_view(id.configText));
    d.add(static_cast<std::uint64_t>(id.coldStart));
    d.add(static_cast<std::uint64_t>(id.chargeRpc));
    d.add(static_cast<std::uint64_t>(id.computeDigest));
    d.add(salt);
    return CellKey{d.value()};
}

std::string
ResultStore::cellPath(const CellKey &key) const
{
    return opts_.dir + "/" + key.hex() + ".cell";
}

bool
ResultStore::loadRun(const CellKey &key, RunResult &out, unsigned &attempts)
{
    std::string record;
    if (!readFile(cellPath(key), record)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return false;
    }

    std::string_view payload;
    RunResult parsed;
    unsigned parsed_attempts = 1;
    if (!validateRecord(record, key.hex(), payload) ||
        !parseRunPayload(payload, parsed, parsed_attempts)) {
        quarantine(key);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return false;
    }
    out = std::move(parsed);
    attempts = parsed_attempts;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    return true;
}

void
ResultStore::storeRun(const CellKey &key, const RunResult &result,
                      unsigned attempts)
{
    const std::string payload = runPayload(result, attempts);
    std::string record =
        headerLine(key.hex(), payload.size(), checksumOf(payload));
    record += '\n';
    record += payload;

    std::lock_guard<std::mutex> lock(mu_);
    ++storeCounter_;
    if (opts_.tornWriteAt != 0 && storeCounter_ == opts_.tornWriteAt) {
        // Crash injection: leave half a record under the *final* name
        // (bypassing the atomic path on purpose) and die, simulating
        // the worst a broken filesystem can do to us.
        const std::string path = cellPath(key);
        const int fd =
            ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            const std::size_t half = record.size() / 2;
            [[maybe_unused]] const ssize_t n =
                ::write(fd, record.data(), half);
            ::close(fd);
        }
        // Crash injection by design: die mid-write without unwinding,
        // exactly as a power cut would.
        ::_exit(121); // lint-src: allow(src-fatal-in-library)
    }

    writeFileAtomic(cellPath(key), record);
    ++stats_.stores;
    if (opts_.killAt != 0 && stats_.stores == opts_.killAt) {
        // Crash injection: the record above is complete and durable;
        // die without unwinding, as SIGKILL would.
        ::_exit(137); // lint-src: allow(src-fatal-in-library)
    }
}

bool
ResultStore::inRevalidateSample(const CellKey &key, unsigned every) const
{
    if (every == 0)
        return false;
    if (every == 1)
        return true;
    return key.digest % every == 0;
}

void
ResultStore::quarantine(const CellKey &key)
{
    const std::string path = cellPath(key);
    const std::string aside = opts_.dir + "/" + key.hex() + ".quarantined";
    std::error_code ec;
    fs::rename(path, aside, ec);
    if (!ec) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.quarantined;
    }
}

void
ResultStore::noteRevalidated()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.revalidated;
}

std::vector<std::string>
ResultStore::listCellFiles() const
{
    std::vector<std::string> names;
    std::error_code ec;
    for (fs::directory_iterator it(opts_.dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->path().extension() == ".cell")
            names.push_back(it->path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace memento
