#include "os/process.h"

namespace memento {

Process::Process(int pid, const std::string &name, const MachineConfig &cfg,
                 BuddyAllocator &buddy, StatRegistry &stats)
    : pid_(pid),
      name_(name),
      vm_(std::make_unique<VirtualMemory>(cfg, buddy, stats,
                                          "vm" + std::to_string(pid)))
{
    mementoRegs_.mrs = cfg.layout.mementoRegionStart;
    mementoRegs_.mre = cfg.layout.mementoRegionEnd();
}

} // namespace memento
