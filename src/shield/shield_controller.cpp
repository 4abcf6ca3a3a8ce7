#include "shield/shield_controller.h"

#include "shield/shield_policy.h"
#include "sim/assert.h"

namespace shield {

ShieldController::ShieldController(kernel::Kernel& kernel) : kernel_(kernel) {
  SIM_ASSERT_MSG(kernel.config().shield_support,
                 "kernel built without shield support");
  auto& ic = kernel_.interrupt_controller();
  for (hw::Irq irq = 0; irq < hw::kMaxIrq; ++irq) {
    irq_user_affinity_[static_cast<std::size_t>(irq)] = ic.affinity(irq);
  }
  register_proc_files();
}

void ShieldController::set_process_shield(hw::CpuMask mask) {
  procs_ = mask & kernel_.topology().all_cpus();
  kernel_.set_process_shield_mask(procs_);
  kernel_.reapply_affinities();
}

void ShieldController::apply_irq_shield() {
  auto& ic = kernel_.interrupt_controller();
  for (hw::Irq irq = 0; irq < hw::kMaxIrq; ++irq) {
    const hw::CpuMask user = irq_user_affinity_[static_cast<std::size_t>(irq)];
    ic.set_affinity(irq, effective_affinity(user, irqs_));
  }
}

void ShieldController::set_irq_shield(hw::CpuMask mask) {
  irqs_ = mask & kernel_.topology().all_cpus();
  apply_irq_shield();
}

void ShieldController::apply_ltmr_shield() {
  auto& timer = kernel_.local_timer();
  for (hw::CpuId cpu = 0; cpu < kernel_.ncpus(); ++cpu) {
    timer.set_enabled(cpu, !ltmr_.test(cpu));
  }
}

void ShieldController::set_ltmr_shield(hw::CpuMask mask) {
  ltmr_ = mask & kernel_.topology().all_cpus();
  apply_ltmr_shield();
}

void ShieldController::shield_all(hw::CpuMask mask) {
  set_process_shield(mask);
  set_irq_shield(mask);
  set_ltmr_shield(mask);
}

void ShieldController::unshield_all() { shield_all(hw::CpuMask::none()); }

bool ShieldController::fully_shielded(hw::CpuId cpu) const {
  return procs_.test(cpu) && irqs_.test(cpu) && ltmr_.test(cpu);
}

void ShieldController::dedicate_cpu(hw::CpuId cpu, kernel::Task& task,
                                    hw::Irq irq) {
  SIM_ASSERT(kernel_.topology().valid_cpu(cpu));
  const hw::CpuMask one = hw::CpuMask::single(cpu);
  const bool ok = kernel_.sched_setaffinity(task, one);
  SIM_ASSERT(ok);
  irq_user_affinity_[static_cast<std::size_t>(irq)] = one;
  shield_all(one);  // re-applies process + irq + ltmr shielding
}

void ShieldController::register_proc_files() {
  auto& procfs = kernel_.procfs();

  procfs.register_file(
      "/proc/shield/procs", [this] { return procs_.to_hex() + "\n"; },
      [this](std::string_view data) {
        hw::CpuMask mask;
        if (!hw::CpuMask::parse_hex(data, mask)) return false;
        set_process_shield(mask);
        return true;
      });
  procfs.register_file(
      "/proc/shield/irqs", [this] { return irqs_.to_hex() + "\n"; },
      [this](std::string_view data) {
        hw::CpuMask mask;
        if (!hw::CpuMask::parse_hex(data, mask)) return false;
        set_irq_shield(mask);
        return true;
      });
  procfs.register_file(
      "/proc/shield/ltmr", [this] { return ltmr_.to_hex() + "\n"; },
      [this](std::string_view data) {
        hw::CpuMask mask;
        if (!hw::CpuMask::parse_hex(data, mask)) return false;
        set_ltmr_shield(mask);
        return true;
      });

  // Re-register /proc/irq/N/smp_affinity so writes record the *user*
  // affinity and the shield algebra is applied on top — matching the
  // paper's interaction semantics between smp_affinity and shielding.
  auto& ic = kernel_.interrupt_controller();
  for (hw::Irq irq = 0; irq < hw::kMaxIrq; ++irq) {
    const std::string path =
        "/proc/irq/" + std::to_string(irq) + "/smp_affinity";
    procfs.register_file(
        path, [&ic, irq] { return ic.affinity(irq).to_hex() + "\n"; },
        [this, &ic, irq](std::string_view data) {
          hw::CpuMask mask;
          if (!hw::CpuMask::parse_hex(data, mask)) return false;
          mask = mask & kernel_.topology().all_cpus();
          if (mask.empty()) return false;
          irq_user_affinity_[static_cast<std::size_t>(irq)] = mask;
          ic.set_affinity(irq, effective_affinity(mask, irqs_));
          return true;
        });
  }
}

}  // namespace shield
