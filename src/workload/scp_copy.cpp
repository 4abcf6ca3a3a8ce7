#include "workload/scp_copy.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

namespace {

/// The foreign host: injects rx bursts into the NIC, pausing between files.
class RemoteSender {
 public:
  RemoteSender(sim::Engine& engine, hw::NicDevice& nic,
               const ScpCopy::Params& p)
      : engine_(engine), nic_(nic), p_(p), rng_(engine.rng().split()) {
    schedule_next();
  }

 private:
  void schedule_next() {
    const bool end_of_file = sent_in_file_ >= p_.file_bytes;
    sim::Duration delay = p_.burst_interval;
    if (end_of_file) {
      sent_in_file_ = 0;
      delay = p_.handshake_gap + rng_.uniform_duration(0, 20_ms);
    } else {
      delay += rng_.uniform_duration(0, p_.burst_interval / 4);
    }
    engine_.schedule(delay, [this] {
      nic_.rx(p_.burst_bytes);
      sent_in_file_ += p_.burst_bytes;
      schedule_next();
    });
  }

  sim::Engine& engine_;
  hw::NicDevice& nic_;
  ScpCopy::Params p_;
  sim::Rng rng_;
  std::uint32_t sent_in_file_ = 0;
};

}  // namespace

void ScpCopy::install(config::Platform& platform) {
  auto& k = platform.kernel();

  // The wire side lives for the platform's lifetime.
  auto sender = std::make_shared<RemoteSender>(platform.engine(),
                                               platform.nic_device(), params_);

  // The local scp/sshd receiver process.
  struct State {
    std::shared_ptr<RemoteSender> keepalive;
    std::uint32_t bursts_since_flush = 0;
    int phase = 0;  // 0: wait for data, 1: decrypt, 2: maybe flush
  };
  auto st = std::make_shared<State>();
  st->keepalive = sender;

  const Params p = params_;
  kernel::Kernel::TaskParams tp;
  tp.name = "scp-recv";
  tp.nice = 0;
  tp.memory_intensity = 0.5;
  auto& nic_drv = platform.nic_driver();
  auto& disk_drv = platform.disk_driver();
  const kernel::WaitQueueId io_wq = k.create_wait_queue("scp_io");

  spawn(k, std::move(tp),
        [st, p, &nic_drv, &disk_drv, io_wq](kernel::Kernel& kk,
                                            kernel::Task&) -> kernel::Action {
          switch (st->phase) {
            case 0:
              st->phase = 1;
              return kernel::SyscallAction{
                  kernel::sys::socket_recv(kk, nic_drv.rx_wait_queue())};
            case 1:
              st->phase = 2;
              return kernel::ComputeAction{p.decrypt_per_burst, 0.55};
            default:
              st->phase = 0;
              st->bursts_since_flush++;
              if (st->bursts_since_flush >= p.flush_every_bursts) {
                st->bursts_since_flush = 0;
                const std::uint32_t bytes = p.burst_bytes * p.flush_every_bursts;
                return kernel::SyscallAction{
                    kernel::sys::fs_io(
                        kk, 150_us,
                        [&disk_drv, bytes, io_wq](kernel::Kernel&,
                                                  kernel::Task&) {
                          disk_drv.submit(bytes, /*write=*/true, io_wq);
                        },
                        io_wq)};
              }
              // Small bookkeeping syscall between bursts.
              return kernel::SyscallAction{kernel::sys::fs_op(kk, 20_us)};
          }
        });
}

}  // namespace workload
