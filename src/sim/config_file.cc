#include "sim/config_file.h"

#include <fstream>
#include <map>

#include "sim/config_schema.h"
#include "sim/error.h"
#include "sim/logging.h"

namespace memento {
namespace {

/** @p s without leading and trailing C-locale white space. */
std::string
trim(const std::string &s)
{
    constexpr const char *kSpace = " \t\n\v\f\r";
    const std::size_t b = s.find_first_not_of(kSpace);
    return b == std::string::npos
               ? std::string()
               : s.substr(b, s.find_last_not_of(kSpace) - b + 1);
}

} // namespace

ConfigLineKind
splitConfigLine(std::string line, std::string &key, std::string &value)
{
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos)
        line.erase(hash);
    line = trim(line);
    if (line.empty())
        return ConfigLineKind::Blank;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        return ConfigLineKind::MissingEquals;
    key = trim(line.substr(0, eq));
    value = trim(line.substr(eq + 1));
    return key.empty() || value.empty() ? ConfigLineKind::EmptyPart
                                        : ConfigLineKind::Assignment;
}

void
applyConfigOption(const std::string &key, const std::string &value,
                  MachineConfig &cfg)
{
    const ConfigKeyInfo *info = findConfigKey(key);
    if (info == nullptr) {
        const std::string suggestion = suggestConfigKey(key);
        sim_error(ErrorCategory::Config, "config: unknown key '", key,
                  "'",
                  suggestion.empty()
                      ? std::string()
                      : "; did you mean '" + suggestion + "'?");
    }
    info->apply(cfg, parseConfigValue(*info, key, value));
}

void
applyConfigStream(std::istream &is, MachineConfig &cfg)
{
    std::string line, key, value;
    unsigned line_no = 0;
    std::map<std::string, unsigned> last_set; // key -> latest assignment line
    while (std::getline(is, line)) {
        ++line_no;
        switch (splitConfigLine(line, key, value)) {
          case ConfigLineKind::Blank:
            continue;
          case ConfigLineKind::MissingEquals:
            sim_error(ErrorCategory::Config, "config: missing '=' on line ",
                      line_no);
          case ConfigLineKind::EmptyPart:
            sim_error(ErrorCategory::Config,
                      "config: empty key or value on line ", line_no);
          case ConfigLineKind::Assignment:
            break;
        }
        const auto [it, inserted] = last_set.emplace(key, line_no);
        if (!inserted) {
            warn("config: duplicate key '", key, "' on line ", line_no,
                 " overrides line ", it->second, " (last value wins)");
            it->second = line_no;
        }
        applyConfigOption(key, value, cfg);
    }
}

void
applyConfigFile(const std::string &path, MachineConfig &cfg)
{
    std::ifstream in(path);
    sim_error_if(!in, ErrorCategory::Config, "config: cannot open '",
                 path, "'");
    applyConfigStream(in, cfg);
}

} // namespace memento
