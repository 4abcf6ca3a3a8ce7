#include "workload/fifos_mmap.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void FifosMmap::install(config::Platform& platform) {
  auto& k = platform.kernel();
  const kernel::WaitQueueId a_wq = k.create_wait_queue("fifo_a");
  const kernel::WaitQueueId b_wq = k.create_wait_queue("fifo_b");
  const Params p = params_;

  // The FIFO buffers data: a write marks the peer's side ready, so a read
  // that arrives after the write consumes immediately instead of blocking
  // (avoids the lost-wakeup a bare wait queue would have).
  struct Channel {
    bool ready[2] = {false, false};
  };
  auto ch = std::make_shared<Channel>();

  // Ping-pong pair: each writes into the FIFO (waking the peer), waits for
  // the reply; every N rounds it detours into mmap work.
  const auto make_side = [&](std::string name, int side,
                             kernel::WaitQueueId self,
                             kernel::WaitQueueId peer, bool starts) {
    struct State {
      int phase;  // 0: send, 1: wait/read, 2: mmap detour
      int rounds = 0;
      explicit State(bool s) : phase(s ? 0 : 1) {}
    };
    auto st = std::make_shared<State>(starts);
    kernel::Kernel::TaskParams tp;
    tp.name = std::move(name);
    tp.memory_intensity = 0.5;
    spawn(k, std::move(tp),
          [st, ch, p, side, self, peer](kernel::Kernel& kk,
                                        kernel::Task&) -> kernel::Action {
            switch (st->phase) {
              case 0: {
                st->phase = 1;
                st->rounds++;
                if (st->rounds >= p.pipe_rounds_per_mmap) {
                  st->rounds = 0;
                  st->phase = 2;
                }
                const int peer_side = 1 - side;
                kernel::ProgramBuilder b;
                b.lock(kernel::LockId::kPipe)
                    .work(p.copy_work, 0.6)
                    .unlock(kernel::LockId::kPipe)
                    .effect([ch, peer_side, peer](kernel::Kernel& k2,
                                                  kernel::Task&) {
                      ch->ready[peer_side] = true;
                      k2.wake_up_one(peer);
                    });
                return kernel::SyscallAction{std::move(b).build()};
              }
              case 2:
                st->phase = 1;
                return kernel::SyscallAction{
                    kernel::sys::mm_op(kk, p.mmap_body_typical)};
              default:
                if (ch->ready[side]) {
                  // Data already buffered: consume without sleeping.
                  ch->ready[side] = false;
                  st->phase = 0;
                  return kernel::SyscallAction{
                      kernel::sys::pipe_op(kk, p.copy_work,
                                           kernel::kNoWaitQueue)};
                }
                // Stay in the wait phase; when woken we re-check the flag.
                return kernel::SyscallAction{
                    kernel::ProgramBuilder{}.block(self).build()};
            }
          });
  };

  make_side("fifos-a", 0, a_wq, b_wq, /*starts=*/true);
  make_side("fifos-b", 1, b_wq, a_wq, /*starts=*/false);
}

}  // namespace workload
