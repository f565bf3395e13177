#include "sim/cycles.h"

#include "sim/logging.h"

namespace memento {

std::string_view
cycleCategoryName(CycleCategory cat)
{
    switch (cat) {
      case CycleCategory::AppCompute: return "app-compute";
      case CycleCategory::AppMemory: return "app-memory";
      case CycleCategory::UserAlloc: return "user-alloc";
      case CycleCategory::UserFree: return "user-free";
      case CycleCategory::KernelMmap: return "kernel-mmap";
      case CycleCategory::KernelFault: return "kernel-fault";
      case CycleCategory::KernelOther: return "kernel-other";
      case CycleCategory::HwAlloc: return "hw-alloc";
      case CycleCategory::HwFree: return "hw-free";
      case CycleCategory::HwPage: return "hw-page";
      case CycleCategory::Rpc: return "rpc";
      case CycleCategory::ContextSwitch: return "context-switch";
      case CycleCategory::NumCategories: break;
    }
    panic("invalid cycle category");
}

} // namespace memento
