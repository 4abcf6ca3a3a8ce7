#include "workload/legacy_ioctl.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void LegacyIoctl::install(config::Platform& platform) {
  auto& k = platform.kernel();
  const Params p = params_;
  for (int i = 0; i < p.clients; ++i) {
    kernel::Kernel::TaskParams tp;
    tp.name = "legacy-ioctl" + std::to_string(i);
    tp.memory_intensity = 0.3;
    auto phase = std::make_shared<int>(0);
    spawn(k, std::move(tp),
          [phase, p](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
            if (++*phase % 2 == 0) {
              return kernel::ComputeAction{p.think, 0.3};
            }
            // A tty/console ioctl: the whole driver body under the BKL.
            kernel::ProgramBuilder b;
            b.section(kernel::LockId::kBkl, kk.sample_section(), 0.4);
            return kernel::SyscallAction{std::move(b).build()};
          });
  }
}

}  // namespace workload
