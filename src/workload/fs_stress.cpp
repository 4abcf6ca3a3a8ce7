#include "workload/fs_stress.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void FsStress::install(config::Platform& platform) {
  auto& k = platform.kernel();
  auto& disk_drv = platform.disk_driver();
  const Params p = params_;

  for (int i = 0; i < p.tasks; ++i) {
    const kernel::WaitQueueId io_wq =
        k.create_wait_queue("fs_stress_io" + std::to_string(i));
    struct State {
      int phase = 0;
      sim::Rng rng;
      explicit State(sim::Rng r) : rng(r) {}
    };
    auto st = std::make_shared<State>(platform.engine().rng().split());
    kernel::Kernel::TaskParams tp;
    tp.name = "fs-stress" + std::to_string(i);
    tp.memory_intensity = 0.6;
    spawn(k, std::move(tp),
          [st, p, &disk_drv, io_wq](kernel::Kernel& kk,
                                    kernel::Task&) -> kernel::Action {
            switch (st->phase) {
              case 0:
                st->phase = 1;
                // truncate/extend: metadata-heavy, long bodies.
                return kernel::SyscallAction{
                    kernel::sys::fs_op(kk, p.body_typical)};
              case 1: {
                st->phase = 2;
                const auto bytes = static_cast<std::uint32_t>(
                    st->rng.uniform(p.io_bytes_min, p.io_bytes_max));
                return kernel::SyscallAction{
                    kernel::sys::fs_io(
                        kk, p.body_typical,
                        [&disk_drv, bytes, io_wq](kernel::Kernel&,
                                                  kernel::Task&) {
                          disk_drv.submit(bytes, /*write=*/true, io_wq);
                        },
                        io_wq)};
              }
              default:
                st->phase = 0;
                return kernel::ComputeAction{100_us, 0.3};  // loop glue
            }
          });
  }
}

}  // namespace workload
