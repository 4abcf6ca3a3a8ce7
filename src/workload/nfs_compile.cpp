#include "workload/nfs_compile.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void NfsCompile::install(config::Platform& platform) {
  auto& k = platform.kernel();
  auto& disk_drv = platform.disk_driver();
  const kernel::WaitQueueId nfsd_wq = k.create_wait_queue("nfsd");
  const kernel::WaitQueueId io_wq = k.create_wait_queue("nfsd_io");
  const Params p = params_;

  // RPCs queue; nfsd only sleeps when none are pending (no lost wakeups).
  auto rpc_pending = std::make_shared<int>(0);

  // nfsd: wait for an RPC, serve it from disk.
  {
    kernel::Kernel::TaskParams tp;
    tp.name = "nfsd";
    tp.memory_intensity = 0.45;
    spawn(k, std::move(tp),
          [rpc_pending, p, nfsd_wq, io_wq, &disk_drv](
              kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
            if (*rpc_pending == 0) {
              return kernel::SyscallAction{
                  kernel::ProgramBuilder{}.block(nfsd_wq).build()};
            }
            (*rpc_pending)--;
            return kernel::SyscallAction{
                kernel::sys::fs_io(
                    kk, p.nfsd_body_typical,
                    [&disk_drv, io_wq](kernel::Kernel&, kernel::Task&) {
                      disk_drv.submit(16'384, /*write=*/false, io_wq);
                    },
                    io_wq)};
          });
  }

  // The make driver: forks a gcc per translation unit (real process
  // churn through fork/exec/exit/wait), fires NFS RPCs over loopback,
  // and reaps its zombies.
  {
    struct State {
      int phase = 0;
      int forks = 0;
      sim::Rng rng;
      explicit State(sim::Rng r) : rng(r) {}
    };
    auto st = std::make_shared<State>(platform.engine().rng().split());
    const kernel::WaitQueueId child_exit_wq = k.create_wait_queue("make_wait");
    // Zombie count: a child that exits before the parent reaches wait4
    // must not be lost (real wait4 finds the zombie immediately).
    auto zombies = std::make_shared<int>(0);
    kernel::Kernel::TaskParams tp;
    tp.name = "cc1";
    tp.memory_intensity = 0.7;
    spawn(k, std::move(tp),
          [st, p, nfsd_wq, rpc_pending, child_exit_wq, zombies](
              kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
            switch (st->phase) {
              case 0: {
                // fork+exec a gcc child that does the actual compiling.
                st->phase = 1;
                st->forks++;
                const sim::Duration burst = st->rng.uniform_duration(
                    p.compile_burst_min, p.compile_burst_max);
                const int id = st->forks;
                return kernel::SyscallAction{
                    kernel::sys::fork_exec(
                        kk,
                        [burst, id, child_exit_wq, zombies](kernel::Kernel& k2,
                                                            kernel::Task&) {
                          kernel::Kernel::TaskParams ctp;
                          ctp.name = "gcc." + std::to_string(id);
                          ctp.memory_intensity = 0.7;
                          auto phase = std::make_shared<int>(0);
                          spawn(k2, std::move(ctp),
                                [phase, burst, child_exit_wq, zombies](
                                    kernel::Kernel& k3,
                                    kernel::Task&) -> kernel::Action {
                                  switch ((*phase)++) {
                                    case 0:  // the compile itself
                                      return kernel::ComputeAction{burst, 0.7};
                                    case 1:  // write the object file
                                      return kernel::SyscallAction{
                                          kernel::sys::fs_op(k3, 80_us)};
                                    case 2: {  // exit(): wake the waiting parent
                                      kernel::ProgramBuilder b;
                                      b.work(3_us, 0.4).effect(
                                          [child_exit_wq, zombies](
                                              kernel::Kernel& k4,
                                              kernel::Task&) {
                                            (*zombies)++;
                                            k4.wake_up_one(child_exit_wq);
                                          });
                                      return kernel::SyscallAction{
                                          std::move(b).build()};
                                    }
                                    default:
                                      return kernel::ExitAction{};
                                  }
                                });
                        })};
              }
              case 1:
                // wait4() for the gcc child; a zombie is consumed without
                // sleeping, otherwise block until the exit wakes us and
                // re-check (phase stays here until the zombie appears).
                if (*zombies > 0) {
                  (*zombies)--;
                  st->phase = 2;
                  return kernel::SyscallAction{
                      kernel::ProgramBuilder{}.work(3_us, 0.4).build()};
                }
                return kernel::SyscallAction{
                    kernel::sys::wait_for_child(kk, child_exit_wq)};
              case 2:
                st->phase = 3;
                // Reap zombies every few compiles, as a shell would.
                if (st->forks % 8 == 0) kk.reap_exited();
                return kernel::SyscallAction{kernel::sys::fs_op(kk, 60_us)};
              default: {
                st->phase = 0;
                const auto softirq_work = static_cast<sim::Duration>(
                    p.rpc_softirq_ns_per_call);
                return kernel::SyscallAction{
                    kernel::sys::socket_op(
                        kk, p.rpc_proto_work,
                        [nfsd_wq, softirq_work, rpc_pending](
                            kernel::Kernel& k2, kernel::Task& t) {
                          // Loopback delivery: rx processing lands on the
                          // sending CPU, then the server wakes.
                          (*rpc_pending)++;
                          k2.raise_softirq(t.cpu, kernel::SoftirqType::kNetRx,
                                           softirq_work);
                          k2.wake_up_one(nfsd_wq);
                        })};
              }
            }
          });
  }
}

}  // namespace workload
