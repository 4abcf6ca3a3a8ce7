#include "workload/x11perf.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void X11Perf::install(config::Platform& platform) {
  auto& k = platform.kernel();
  auto& gpu = platform.gpu_device();
  auto& gpu_drv = platform.gpu_driver();
  const kernel::WaitQueueId x_req_wq = k.create_wait_queue("x11_requests");
  const Params p = params_;

  auto requests_pending = std::make_shared<int>(0);

  // The X server: wait for client requests, build a batch, submit to the
  // GPU, sleep until the completion interrupt.
  {
    struct State {
      int phase = 0;
    };
    auto st = std::make_shared<State>();
    kernel::Kernel::TaskParams tp;
    tp.name = "Xorg";
    tp.memory_intensity = 0.65;
    spawn(k, std::move(tp),
          [st, p, requests_pending, x_req_wq, &gpu, &gpu_drv](
              kernel::Kernel&, kernel::Task&) -> kernel::Action {
            switch (st->phase) {
              case 0:
                if (*requests_pending == 0) {
                  return kernel::SyscallAction{
                      kernel::ProgramBuilder{}.block(x_req_wq).build()};
                }
                (*requests_pending)--;
                st->phase = 1;
                return kernel::ComputeAction{p.server_cpu_per_batch, 0.65};
              default:
                st->phase = 0;
                return kernel::SyscallAction{
                    kernel::ProgramBuilder{}
                        .work(5_us, 0.4)
                        .effect([&gpu, p](kernel::Kernel&, kernel::Task&) {
                          gpu.submit_batch(p.commands_per_batch);
                        })
                        .block(gpu_drv.completion_queue())
                        .work(3_us, 0.4)
                        .build()};
            }
          });
  }

  // The x11perf client: think, then fire a request at the server.
  {
    struct State {
      int phase = 0;
    };
    auto st = std::make_shared<State>();
    kernel::Kernel::TaskParams tp;
    tp.name = "x11perf";
    tp.memory_intensity = 0.4;
    spawn(k, std::move(tp),
          [st, p, requests_pending, x_req_wq](kernel::Kernel&,
                                              kernel::Task&) -> kernel::Action {
            if (st->phase == 0) {
              st->phase = 1;
              return kernel::ComputeAction{p.client_think, 0.4};
            }
            st->phase = 0;
            kernel::ProgramBuilder b;
            b.lock(kernel::LockId::kPipe)
                .work(30_us, 0.5)
                .unlock(kernel::LockId::kPipe)
                .effect([requests_pending, x_req_wq](kernel::Kernel& k2,
                                                     kernel::Task&) {
                  (*requests_pending)++;
                  k2.wake_up_one(x_req_wq);
                });
            return kernel::SyscallAction{std::move(b).build()};
          });
  }
}

}  // namespace workload
