#include "rt/rcim_test.h"

#include <memory>

#include "sim/assert.h"

namespace rt {

class RcimTest::Behavior final : public kernel::Behavior {
 public:
  explicit Behavior(RcimTest& owner) : owner_(owner) {}

  kernel::Action next_action(kernel::Kernel& k, kernel::Task& t) override {
    const sim::Time now = k.now();
    k.finish_latency_chain(t);
    if (waited_ && !owner_.done()) {
      auto& dev = owner_.driver_.device();
      // The user-space measurement: mmap'd count register.
      owner_.latencies_.add(dev.elapsed_in_cycle());
      // Ground truth from the simulator.
      const sim::Duration truth = now - dev.last_fire();
      owner_.true_latencies_.add(truth);
      if (truth >= dev.period()) owner_.overruns_++;
      owner_.collected_++;
    }
    if (owner_.done()) return kernel::ExitAction{};
    waited_ = true;
    return kernel::SyscallAction{owner_.driver_.wait_ioctl_program()};
  }

 private:
  RcimTest& owner_;
  bool waited_ = false;
};

RcimTest::RcimTest(kernel::Kernel& kernel, kernel::RcimDriver& driver,
                   Params params)
    : kernel_(kernel), driver_(driver), params_(params) {
  SIM_ASSERT(params_.samples > 0 && params_.count > 0);
  kernel::Kernel::TaskParams tp;
  tp.name = "rcim-response";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = params_.rt_priority;
  tp.affinity = params_.affinity;
  tp.mlocked = true;
  tp.memory_intensity = 0.2;
  task_ = &kernel.create_task(std::move(tp), std::make_unique<Behavior>(*this));
}

void RcimTest::start() { driver_.device().program_periodic(params_.count); }

}  // namespace rt
