#include "sim/config_canon.h"

#include "sim/config_schema.h"

namespace memento {

std::string
canonicalConfigText(const MachineConfig &cfg, ConfigScope scope)
{
    std::string text;
    for (const ConfigKeyInfo &info : configSchema()) {
        if (info.scope != scope)
            continue;
        text += info.name;
        text += '=';
        info.render(cfg, text);
        text += '\n';
    }
    return text;
}

} // namespace memento
