#include "rt/cyclictest.h"

#include <memory>

#include "sim/assert.h"

namespace rt {

class CyclicTest::Behavior final : public kernel::Behavior {
 public:
  explicit Behavior(CyclicTest& owner) : owner_(owner) {}

  kernel::Action next_action(kernel::Kernel& k, kernel::Task& t) override {
    const sim::Time now = k.now();
    k.finish_latency_chain(t);
    if (waited_ && !owner_.done() && owner_.timer_ >= 0) {
      const sim::Time expiry = k.timer_last_expiry(owner_.timer_);
      if (expiry > 0 && now >= expiry) {
        // How late did we run after the expiry that woke us?
        owner_.latencies_.add(now - expiry);
        owner_.collected_++;
      }
    }
    if (owner_.done()) return kernel::ExitAction{};
    waited_ = true;
    return kernel::SyscallAction{
        kernel::ProgramBuilder{}.block(owner_.wq_).build()};
  }

 private:
  CyclicTest& owner_;
  bool waited_ = false;
};

CyclicTest::CyclicTest(kernel::Kernel& kernel, Params params)
    : kernel_(kernel),
      params_(params),
      wq_(kernel.create_wait_queue("cyclictest")) {
  SIM_ASSERT(params_.cycles > 0 && params_.period > 0);
  kernel::Kernel::TaskParams tp;
  tp.name = "cyclictest";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = params_.rt_priority;
  tp.affinity = params_.affinity;
  tp.mlocked = true;
  tp.memory_intensity = 0.15;
  task_ = &kernel.create_task(std::move(tp), std::make_unique<Behavior>(*this));
}

void CyclicTest::start() {
  timer_ = kernel_.arm_periodic_timer(wq_, params_.period);
}

}  // namespace rt
