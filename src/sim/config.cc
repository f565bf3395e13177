#include "sim/config.h"

namespace memento {

MachineConfig
defaultConfig()
{
    return MachineConfig{};
}

MachineConfig
mementoConfig()
{
    MachineConfig cfg;
    cfg.memento.enabled = true;
    return cfg;
}

} // namespace memento
