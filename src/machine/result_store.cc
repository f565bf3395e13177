#include "machine/result_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <filesystem>
#include <span>

#include <unistd.h>
#include <fcntl.h>

#include "sim/atomic_io.h"
#include "sim/config_canon.h"
#include "sim/error.h"
#include "val/digest.h"

namespace memento {
namespace {

namespace fs = std::filesystem;

/** First word of every record; a file that does not start so is damage. */
constexpr std::string_view kRecordTag = "memento-run-cell";
/** Bumped whenever the record layout changes. */
constexpr unsigned kRecordVersion = 1;

std::uint64_t
checksumOf(std::string_view payload)
{
    DigestBuilder d;
    d.add(payload);
    return d.value();
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string
headerLine(std::string_view key_hex, std::size_t payload_bytes,
           std::uint64_t checksum)
{
    return std::string(kRecordTag) + ' ' + std::to_string(kRecordVersion) +
           ' ' + std::string(key_hex) + ' ' + std::to_string(payload_bytes) +
           ' ' + digestToHex(checksum);
}

/** Split off the text before the next newline; false when none is left. */
bool
nextLine(std::string_view &rest, std::string_view &line)
{
    const std::size_t nl = rest.find('\n');
    if (nl == std::string_view::npos)
        return false;
    line = rest.substr(0, nl);
    rest.remove_prefix(nl + 1);
    return true;
}

/** Strip "@p name " off the front of @p text; false when it is not there. */
bool
stripName(std::string_view &text, std::string_view name)
{
    if (!text.starts_with(name) || text.substr(name.size(), 1) != " ")
        return false;
    text.remove_prefix(name.size() + 1);
    return true;
}

/** Split off the non-empty word before the next space. */
bool
nextWord(std::string_view &text, std::string_view &word)
{
    const std::size_t sp = text.find(' ');
    if (sp == 0 || sp == std::string_view::npos)
        return false;
    word = text.substr(0, sp);
    text.remove_prefix(sp + 1);
    return true;
}

/**
 * Parse @p text as exactly out.size() space-separated unsigned
 * decimals: no sign, no junk after a number, no overflow.
 */
bool
parseValues(std::string_view text, std::span<std::uint64_t> out)
{
    const char *p = text.data();
    const char *const end = p + text.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i != 0 && (p == end || *p++ != ' '))
            return false;
        const auto [next, ec] = std::from_chars(p, end, out[i]);
        if (ec != std::errc())
            return false;
        p = next;
    }
    return p == end;
}

/**
 * Validate one record's bytes: a run cell whose header names
 * @p key_hex. Fills @p payload (a view into @p record) on success.
 */
bool
validateRecord(std::string_view record, std::string_view key_hex,
               std::string_view &payload)
{
    std::string_view header;
    if (!nextLine(record, header) ||
        header != headerLine(key_hex, record.size(), checksumOf(record)))
        return false;
    payload = record;
    return true;
}

// ---- RunResult payload (de)serialization -----------------------------

template <typename U64>
struct NumericLine
{
    std::string_view name;
    std::span<U64> values;
};

/**
 * The numeric lines between `workload` and the counters, in record
 * order: the writer and the reader share this one list. @p frag_bits
 * stands in for fragInactiveFraction, which travels as its bit pattern
 * so that a cache hit is bit-true.
 */
template <typename Result, typename U64>
std::array<NumericLine<U64>, 7>
numericLines(Result &r, U64 &frag_bits)
{
    return {{{"cycles", {&r.cycles, 1}},
             {"by_category", r.byCategory},
             {"instructions", {&r.instructions, 1}},
             {"peak_resident_pages", {&r.peakResidentPages, 1}},
             {"hot_valid_entries", {&r.hotValidEntries, 1}},
             {"frag_inactive_bits", {&frag_bits, 1}},
             {"digest", {&r.digest, 1}}}};
}

std::string
runPayload(const RunResult &r)
{
    std::string out = "workload ";
    out += r.workload;
    const std::uint64_t frag_bits =
        std::bit_cast<std::uint64_t>(r.fragInactiveFraction);
    for (const auto &[name, values] : numericLines(r, frag_bits)) {
        out += '\n';
        out += name;
        for (const std::uint64_t v : values) {
            out += ' ';
            appendU64(out, v);
        }
    }
    for (const CounterReading &c : r.counters) {
        out += "\ncounter ";
        out += c.name;
        out += ' ';
        appendU64(out, c.start);
        out += ' ';
        appendU64(out, c.end);
    }
    // The error line comes last and has no newline: its message runs to
    // the end of the payload, so any bytes round-trip.
    out += "\nerror";
    if (r.error.has_value()) {
        out += ' ';
        out += errorCategoryName(r.error->category);
        out += ' ';
        appendU64(out, r.error->opIndex);
        out += ' ';
        out += r.error->message;
    }
    return out;
}

bool
parseRunPayload(std::string_view payload, RunResult &r)
{
    std::string_view line;
    if (!nextLine(payload, line) || !stripName(line, "workload"))
        return false;
    r.workload = line;

    std::uint64_t frag_bits = 0;
    for (const auto &[name, values] : numericLines(r, frag_bits)) {
        if (!nextLine(payload, line) || !stripName(line, name) ||
            !parseValues(line, values))
            return false;
    }
    r.fragInactiveFraction = std::bit_cast<double>(frag_bits);

    // Counter names must be strictly ascending, as the registry keeps
    // them; anything else is damage.
    std::string_view name;
    std::array<std::uint64_t, 2> window{};
    while (stripName(payload, "counter")) {
        if (!nextLine(payload, line) || !nextWord(line, name) ||
            !parseValues(line, window) ||
            (!r.counters.empty() && !(r.counters.back().name < name)))
            return false;
        r.counters.push_back({std::string(name), window[0], window[1]});
    }

    if (payload == "error")
        return true;
    RunError re;
    std::string_view op_index;
    if (!stripName(payload, "error") || !nextWord(payload, name) ||
        !errorCategoryFromName(name, re.category) ||
        !nextWord(payload, op_index) ||
        !parseValues(op_index, {&re.opIndex, 1}))
        return false;
    re.message = payload;
    r.error = std::move(re);
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
            opts.computeDigest};
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
    if (!validateRecord(record, key.hex(), payload) ||
        !parseRunPayload(payload, parsed)) {
        quarantine(key);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return false;
    }
    out = std::move(parsed);
    attempts = 1;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    return true;
}

void
ResultStore::storeRun(const CellKey &key, const RunResult &result,
                      unsigned /*attempts*/)
{
    const std::string payload = runPayload(result);
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
