#include "rt/realfeel_test.h"

#include <memory>

#include "sim/assert.h"

namespace rt {

class RealfeelTest::Behavior final : public kernel::Behavior {
 public:
  explicit Behavior(RealfeelTest& owner) : owner_(owner) {}

  kernel::Action next_action(kernel::Kernel& k, kernel::Task& t) override {
    const sim::Time now = k.now();  // rdtsc after read() returned
    k.finish_latency_chain(t);
    if (have_prev_ && !owner_.done()) {
      const sim::Duration gap = now - prev_return_;
      const sim::Duration period = owner_.driver_.device().nominal_period();
      owner_.latencies_.add(gap > period ? gap - period : 0);
      owner_.wake_latencies_.add(now - owner_.driver_.device().last_fire());
      owner_.collected_++;
    }
    if (owner_.done()) return kernel::ExitAction{};
    prev_return_ = now;
    have_prev_ = true;
    return kernel::SyscallAction{owner_.driver_.read_program()};
  }

 private:
  RealfeelTest& owner_;
  bool have_prev_ = false;
  sim::Time prev_return_ = 0;
};

RealfeelTest::RealfeelTest(kernel::Kernel& kernel, kernel::RtcDriver& driver,
                           Params params)
    : kernel_(kernel), driver_(driver), params_(params) {
  SIM_ASSERT(params_.samples > 0);
  kernel::Kernel::TaskParams tp;
  tp.name = "realfeel";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = params_.rt_priority;
  tp.affinity = params_.affinity;
  tp.mlocked = true;
  tp.memory_intensity = 0.2;
  task_ = &kernel.create_task(std::move(tp), std::make_unique<Behavior>(*this));
}

void RealfeelTest::start() {
  driver_.device().set_rate_hz(params_.rate_hz);
  driver_.device().start_periodic();
}

}  // namespace rt
