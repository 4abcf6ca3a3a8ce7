#include "workload/ttcp.h"

#include <memory>

#include "kernel/syscalls.h"

namespace workload {

using namespace sim::literals;

void TtcpLoopback::install(config::Platform& platform) {
  auto& k = platform.kernel();
  const kernel::WaitQueueId rx_wq = k.create_wait_queue("ttcp_lo_rx");
  const Params p = params_;

  // Receiver.
  {
    kernel::Kernel::TaskParams tp;
    tp.name = "ttcp-lo-recv";
    tp.memory_intensity = 0.55;
    spawn(k, std::move(tp),
          [rx_wq](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
            return kernel::SyscallAction{kernel::sys::socket_recv(kk, rx_wq)};
          });
  }

  // Sender: large writes; loopback rx lands on the sender's CPU.
  {
    struct State {
      int phase = 0;
    };
    auto st = std::make_shared<State>();
    kernel::Kernel::TaskParams tp;
    tp.name = "ttcp-lo-send";
    tp.memory_intensity = 0.55;
    const auto rx_work = static_cast<sim::Duration>(
        static_cast<double>(p.chunk_bytes) * p.rx_softirq_ns_per_byte);
    spawn(k, std::move(tp),
          [st, p, rx_wq, rx_work](kernel::Kernel& kk,
                                  kernel::Task&) -> kernel::Action {
            if (st->phase == 1) {
              st->phase = 0;
              return kernel::ComputeAction{p.sender_pause, 0.4};
            }
            st->phase = 1;
            return kernel::SyscallAction{
                kernel::sys::socket_op(
                    kk, p.proto_work,
                    [rx_wq, rx_work](kernel::Kernel& k2, kernel::Task& t) {
                      k2.raise_softirq(t.cpu, kernel::SoftirqType::kNetRx,
                                       rx_work);
                      k2.wake_up_one(rx_wq);
                    })};
          });
  }
}

void TtcpEthernet::install(config::Platform& platform) {
  auto& k = platform.kernel();
  auto& nic = platform.nic_device();
  auto& nic_drv = platform.nic_driver();
  const Params p = params_;

  // The remote peer streams data at link rate.
  {
    auto rng = std::make_shared<sim::Rng>(platform.engine().rng().split());
    auto& engine = platform.engine();
    // Self-rescheduling injection loop.
    struct Injector {
      static void arm(sim::Engine& e, hw::NicDevice& n, Params pp,
                      std::shared_ptr<sim::Rng> r) {
        const sim::Duration jitter = r->uniform_duration(0, pp.send_interval / 4);
        e.schedule(pp.send_interval + jitter, [&e, &n, pp, r] {
          n.rx(pp.chunk_bytes);
          arm(e, n, pp, r);
        });
      }
    };
    Injector::arm(engine, nic, p, rng);
  }

  // Local ttcp: read from the wire, write back out.
  {
    struct State {
      int phase = 0;
    };
    auto st = std::make_shared<State>();
    kernel::Kernel::TaskParams tp;
    tp.name = "ttcp-eth";
    tp.memory_intensity = 0.5;
    spawn(k, std::move(tp),
          [st, p, &nic, &nic_drv](kernel::Kernel& kk,
                                  kernel::Task&) -> kernel::Action {
            if (st->phase == 0) {
              st->phase = 1;
              return kernel::SyscallAction{
                  kernel::sys::socket_recv(kk, nic_drv.rx_wait_queue())};
            }
            st->phase = 0;
            return kernel::SyscallAction{
                kernel::sys::socket_op(kk, p.proto_work,
                                       [&nic, p](kernel::Kernel&,
                                                 kernel::Task&) {
                                         nic.tx(p.chunk_bytes);
                                       })};
          });
  }
}

}  // namespace workload
