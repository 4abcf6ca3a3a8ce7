#include "workload/hackbench.h"

#include <array>
#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void Hackbench::install(config::Platform& platform) {
  auto& k = platform.kernel();
  const Params p = params_;

  for (int pair = 0; pair < p.pairs; ++pair) {
    const auto a_wq = k.create_wait_queue("hb_a" + std::to_string(pair));
    const auto b_wq = k.create_wait_queue("hb_b" + std::to_string(pair));
    // Message buffer per direction (lossless handoff, like a real pipe).
    auto ready = std::make_shared<std::array<int, 2>>();

    const auto make_side = [&](const std::string& name, int side,
                               kernel::WaitQueueId self,
                               kernel::WaitQueueId peer, bool starts) {
      struct State {
        int phase;
        explicit State(bool s) : phase(s ? 0 : 1) {}
      };
      auto st = std::make_shared<State>(starts);
      kernel::Kernel::TaskParams tp;
      tp.name = name;
      tp.nice = 5;  // background priority, like the real tool's default
      tp.memory_intensity = 0.4;
      spawn(k, std::move(tp),
            [st, ready, p, side, self, peer](kernel::Kernel& kk,
                                             kernel::Task&) -> kernel::Action {
              if (st->phase == 0) {
                st->phase = 1;
                const int peer_side = 1 - side;
                kernel::ProgramBuilder b;
                b.lock(kernel::LockId::kPipe)
                    .work(p.message_work, 0.5)
                    .unlock(kernel::LockId::kPipe)
                    .effect([ready, peer_side, peer](kernel::Kernel& k2,
                                                     kernel::Task&) {
                      (*ready)[static_cast<std::size_t>(peer_side)]++;
                      k2.wake_up_one(peer);
                    });
                return kernel::SyscallAction{std::move(b).build()};
              }
              auto& pending = (*ready)[static_cast<std::size_t>(side)];
              if (pending > 0) {
                pending--;
                st->phase = 0;
                return kernel::SyscallAction{
                    kernel::sys::pipe_op(kk, p.message_work,
                                         kernel::kNoWaitQueue)};
              }
              return kernel::SyscallAction{
                  kernel::ProgramBuilder{}.block(self).build()};
            });
    };
    make_side("hb-send" + std::to_string(pair), 0, a_wq, b_wq, true);
    make_side("hb-recv" + std::to_string(pair), 1, b_wq, a_wq, false);
  }
}

}  // namespace workload
