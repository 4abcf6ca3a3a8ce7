#include "workload/p3_fpu.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void P3Fpu::install(config::Platform& platform) {
  auto& k = platform.kernel();
  const Params p = params_;

  for (int i = 0; i < p.tasks; ++i) {
    struct State {
      int phase = 0;
      sim::Rng rng;
      explicit State(sim::Rng r) : rng(r) {}
    };
    auto st = std::make_shared<State>(platform.engine().rng().split());
    kernel::Kernel::TaskParams tp;
    tp.name = "p3-fpu" + (p.tasks > 1 ? std::to_string(i) : std::string());
    tp.memory_intensity = p.memory_intensity;
    spawn(k, std::move(tp),
          [st, p](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
            if (st->phase == 1) {
              st->phase = 0;
              // Occasional progress write (gettimeofday/printf-style).
              return kernel::SyscallAction{kernel::sys::fs_op(kk, 10_us)};
            }
            st->phase = 1;
            return kernel::ComputeAction{
                st->rng.uniform_duration(p.burst_min, p.burst_max),
                p.memory_intensity};
          });
  }
}

}  // namespace workload
