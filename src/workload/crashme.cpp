#include "workload/crashme.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void Crashme::install(config::Platform& platform) {
  auto& k = platform.kernel();
  const Params p = params_;

  struct State {
    int faults_left = 0;
    sim::Rng rng;
    explicit State(sim::Rng r) : rng(r) {}
  };
  auto st = std::make_shared<State>(platform.engine().rng().split());

  kernel::Kernel::TaskParams tp;
  tp.name = "crashme";
  tp.memory_intensity = 0.5;
  spawn(k, std::move(tp),
        [st, p](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
          if (st->faults_left == 0) {
            st->faults_left = p.faults_per_buffer;
            return kernel::ComputeAction{
                st->rng.uniform_duration(p.buffer_gen_min, p.buffer_gen_max),
                0.6};
          }
          st->faults_left--;
          return kernel::SyscallAction{kernel::sys::fault_storm(kk)};
        });
}

}  // namespace workload
