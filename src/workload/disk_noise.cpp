#include "workload/disk_noise.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void DiskNoise::install(config::Platform& platform) {
  auto& k = platform.kernel();
  auto& disk_drv = platform.disk_driver();
  const kernel::WaitQueueId io_wq = k.create_wait_queue("disknoise_io");

  struct State {
    int cat_index = 0;
    int cycle = 0;
    int phase = 0;  // 0: cat (fs io), 1: think/shell
    sim::Rng rng;
    explicit State(sim::Rng r) : rng(r) {}
  };
  auto st = std::make_shared<State>(platform.engine().rng().split());

  const Params p = params_;
  kernel::Kernel::TaskParams tp;
  tp.name = "disknoise";
  tp.nice = 0;
  tp.memory_intensity = 0.6;  // streams file data through the cache

  spawn(k, std::move(tp),
        [st, p, &disk_drv, io_wq](kernel::Kernel& kk,
                                  kernel::Task&) -> kernel::Action {
          if (st->phase == 1) {
            st->phase = 0;
            return kernel::ComputeAction{p.think, 0.3};
          }
          st->phase = 1;
          st->cat_index++;
          if (st->cat_index >= p.cats_per_cycle) {
            st->cat_index = 0;
            st->cycle++;
            if (st->cycle >= p.cycles_before_rm) {
              st->cycle = 0;
              // `rm *` — a directory-heavy metadata operation.
              return kernel::SyscallAction{kernel::sys::fs_op(kk, 800_us)};
            }
          }
          // `cat * > $f`: read everything, write a growing file. Most cats
          // hit the page cache (buffered writes); roughly every fourth one
          // forces real disk I/O via write-back pressure.
          const auto bytes = static_cast<std::uint32_t>(
              st->rng.uniform(p.io_bytes_min, p.io_bytes_max));
          if (st->rng.chance(0.25)) {
            return kernel::SyscallAction{
                kernel::sys::fs_io(
                    kk, p.cat_body_typical,
                    [&disk_drv, bytes, io_wq](kernel::Kernel&, kernel::Task&) {
                      disk_drv.submit(bytes, /*write=*/true, io_wq);
                    },
                    io_wq)};
          }
          return kernel::SyscallAction{
              kernel::sys::fs_op(kk, p.cat_body_typical)};
        });
}

}  // namespace workload
