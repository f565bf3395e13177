/**
 * @file
 * The one JSON emitter every `--json` surface of the simulator shares.
 *
 * All machine-readable output — `check` / `lint-config` / `lint-src`
 * findings, the `rules` table, the `fleet` report — is produced through
 * JsonWriter, so escaping, number formatting, and the document
 * envelope are identical everywhere and downstream tooling can parse
 * any command's output with one loader.
 *
 * Every top-level document starts with the same two members:
 *
 *     {
 *       "schema_version": 1,
 *       "kind": "diagnostics" | "rules" | "fleet",
 *       ...
 *     }
 *
 * `schema_version` is bumped whenever any emitted document changes
 * incompatibly (a member removed or re-typed; additions are
 * compatible and do not bump it). Consumers should reject versions
 * they do not know. writeSchemaHeader() stamps the envelope.
 *
 * JsonWriter is a streaming writer with explicit begin/end nesting; it
 * validates nesting depth and key/value alternation with panics (a
 * malformed document is a programming error, never a user error).
 * Doubles are written with 12 significant digits (locale-independent);
 * NaN and infinities are written as null (JSON has no spelling for
 * them).
 *
 * This is the write side only: the simulator never reads JSON back.
 * The result store keeps its own line records (machine/result_store.h).
 */

#ifndef MEMENTO_SIM_JSON_H
#define MEMENTO_SIM_JSON_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace memento {

/** Version stamped into every JSON document's envelope. */
inline constexpr unsigned kJsonSchemaVersion = 1;

/** Streaming JSON document writer (pretty-printed, two-space indent). */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    // ---- Structure ----
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key inside an object; must be followed by a value. */
    JsonWriter &key(std::string_view k);

    // ---- Values ----
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &valueNull();

    // ---- key+value conveniences ----
    template <typename T>
    JsonWriter &
    member(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /** True once every begin has been matched by its end. */
    bool complete() const { return frames_.empty() && wroteRoot_; }

  private:
    enum class Frame : std::uint8_t { Object, Array };

    void beforeValue();
    void newlineIndent();
    void writeEscaped(std::string_view s);

    std::ostream &os_;
    std::vector<Frame> frames_;
    /** A key was emitted and its value is pending. */
    bool keyPending_ = false;
    /** The current frame already holds at least one element. */
    std::vector<bool> frameHasElems_;
    bool wroteRoot_ = false;
};

/**
 * Stamp the shared envelope: the writer must be positioned right after
 * beginObject(). Writes "schema_version" and "kind".
 */
void writeSchemaHeader(JsonWriter &w, std::string_view kind);

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

} // namespace memento

#endif // MEMENTO_SIM_JSON_H
