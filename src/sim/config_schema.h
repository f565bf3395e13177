/**
 * @file
 * Declarative schema for the simulator's `key = value` configuration
 * surface.
 *
 * Every key the parser accepts is one table entry: name, value type,
 * inclusive numeric range, one-line description, the canonical text it
 * feeds, and a setter and a renderer for the one MachineConfig field it
 * names. The entry names that field once; its value type is deduced
 * from the field's C++ type. sim/config_file.cc applies options through
 * the table, sim/config_canon.cc renders the cache-key and fleet-digest
 * texts from it, and the sa/ config linter validates files against it,
 * so the accepted key set, the value grammar, the range checks and the
 * canonical texts can never drift apart.
 *
 * Integer values accept decimal with an optional k/m/g binary suffix
 * ("256k" = 262144) or a 0x-prefixed hexadecimal literal (address keys
 * such as layout.memento_region_start). Booleans accept
 * true/false/on/off/1/0/yes/no.
 */

#ifndef MEMENTO_SIM_CONFIG_SCHEMA_H
#define MEMENTO_SIM_CONFIG_SCHEMA_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.h"

namespace memento {

/** Value type of one configuration key. */
enum class ConfigType : std::uint8_t { U64, U32, F64, Bool, String };

/** A parsed value; the member matching the key's type is set. */
struct ConfigValue
{
    std::uint64_t u64 = 0;
    double f64 = 0.0;
    bool boolean = false;
    std::string str;
};

/** Outcome of parsing a raw value against a schema entry. */
enum class ConfigParseStatus : std::uint8_t {
    Ok,
    BadValue,   ///< Does not parse as the key's type.
    OutOfRange, ///< Parses, but violates the declared range.
};

/** Which canonical text (sim/config_canon.h) a key's value goes into. */
enum class ConfigScope : std::uint8_t {
    Cell,   ///< Can change a run's result: part of the cell key.
    Fleet,  ///< fleet.*: the fleet digest's input, not the cell key.
    Policy, ///< sweep.*, inject.store_*: how a sweep runs; in neither.
};

/** One schema entry. */
struct ConfigKeyInfo
{
    const char *name;
    ConfigType type;
    /** Inclusive numeric range (ignored for Bool/String keys). */
    double minValue;
    double maxValue;
    /** One-line description used by lint output and docs. */
    const char *doc;
    /** The canonical text the value is rendered into. */
    ConfigScope scope;
    /** Store @p value into the MachineConfig field the key names. */
    void (*apply)(MachineConfig &cfg, const ConfigValue &value);
    /**
     * Append the field's canonical rendering to @p out: integers in
     * decimal, doubles with %.17g (exact binary round-trip), booleans as
     * 1/0, strings verbatim.
     */
    void (*render)(const MachineConfig &cfg, std::string &out);
};

/** The full schema, sorted by key name. */
const std::vector<ConfigKeyInfo> &configSchema();

/** Schema entry for @p key, or nullptr when the key is unknown. */
const ConfigKeyInfo *findConfigKey(std::string_view key);

/**
 * Parse @p raw against @p info's type and range. On success fills
 * @p out and returns Ok; otherwise returns the failure kind and fills
 * @p why with a human-readable reason (no key name or location — the
 * caller owns diagnostics framing).
 */
ConfigParseStatus tryParseConfigValue(const ConfigKeyInfo &info,
                                      const std::string &raw,
                                      ConfigValue &out, std::string &why);

/**
 * tryParseConfigValue() that throws SimError(Config) mentioning
 * @p key on any failure.
 */
ConfigValue parseConfigValue(const ConfigKeyInfo &info,
                             const std::string &key,
                             const std::string &raw);

/**
 * The known key nearest to @p key by Damerau-Levenshtein distance, or
 * "" when nothing is close enough to be a plausible typo.
 */
std::string suggestConfigKey(std::string_view key);

} // namespace memento

#endif // MEMENTO_SIM_CONFIG_SCHEMA_H
