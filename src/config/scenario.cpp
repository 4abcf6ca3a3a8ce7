#include "config/scenario.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rt/probe.h"
#include "workload/registry.h"

namespace config {
namespace {

using json::Value;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

const std::string& str_field(const Value& v, const std::string& key) {
  if (!v.is_string()) fail("'" + key + "' must be a string");
  return v.as_string();
}

std::string shield_mode_token(ShieldPlan::Mode m) {
  switch (m) {
    case ShieldPlan::Mode::kNone: return "none";
    case ShieldPlan::Mode::kShieldAll: return "shield-all";
    case ShieldPlan::Mode::kDedicate: return "dedicate";
    case ShieldPlan::Mode::kComponents: return "components";
  }
  return "none";
}

ShieldPlan::Mode shield_mode_from(const std::string& token) {
  if (token == "none") return ShieldPlan::Mode::kNone;
  if (token == "shield-all") return ShieldPlan::Mode::kShieldAll;
  if (token == "dedicate") return ShieldPlan::Mode::kDedicate;
  if (token == "components") return ShieldPlan::Mode::kComponents;
  fail("unknown shield mode '" + token + "'");
}

Value shield_to_json(const ShieldPlan& s) {
  Value v = Value::object();
  v.set("mode", shield_mode_token(s.mode));
  v.set("cpu", s.cpu);
  if (s.mode == ShieldPlan::Mode::kComponents) {
    v.set("procs", s.procs);
    v.set("irqs", s.irqs);
    v.set("ltmr", s.ltmr);
    v.set("bind_irq", s.bind_irq);
  }
  return v;
}

ShieldPlan shield_from_json(const Value& v) {
  if (!v.is_object()) fail("'shield' must be an object");
  ShieldPlan s;
  for (const auto& [key, val] : v.members()) {
    if (key == "mode") {
      s.mode = shield_mode_from(str_field(val, "shield.mode"));
    } else if (key == "cpu") {
      s.cpu = static_cast<int>(val.as_i64());
    } else if (key == "procs") {
      s.procs = val.as_bool();
    } else if (key == "irqs") {
      s.irqs = val.as_bool();
    } else if (key == "ltmr") {
      s.ltmr = val.as_bool();
    } else if (key == "bind_irq") {
      s.bind_irq = val.as_bool();
    } else {
      fail("unknown shield key '" + key + "'");
    }
  }
  return s;
}

Value duration_to_json(const DurationPolicy& d) {
  Value v = Value::object();
  if (d.fixed_ns > 0) {
    v.set("fixed_ns", d.fixed_ns);
  } else {
    v.set("factor", d.factor);
    v.set("margin_ns", d.margin_ns);
  }
  return v;
}

DurationPolicy duration_from_json(const Value& v) {
  if (!v.is_object()) fail("'duration' must be an object");
  DurationPolicy d;
  for (const auto& [key, val] : v.members()) {
    if (key == "factor") {
      d.factor = val.as_double();
    } else if (key == "margin_ns") {
      d.margin_ns = val.as_u64();
    } else if (key == "fixed_ns") {
      d.fixed_ns = val.as_u64();
    } else {
      fail("unknown duration key '" + key + "'");
    }
  }
  return d;
}

Value telemetry_to_json(const TelemetryPlan& t) {
  Value v = Value::object();
  if (t.sampler) {
    v.set("sampler", true);
    if (t.sample_period_ns != 10 * sim::kMillisecond) {
      v.set("sample_period_ns", t.sample_period_ns);
    }
  }
  if (t.flight_recorder) {
    v.set("flight_recorder", true);
    if (t.flight_capacity != 4096) v.set("flight_capacity", t.flight_capacity);
  }
  if (t.timeline) v.set("timeline", true);
  if (t.blame) {
    v.set("blame", true);
    if (t.blame_worst != 8) v.set("blame_worst", t.blame_worst);
    if (t.blame_threshold_ns != 0) {
      v.set("blame_threshold_ns", t.blame_threshold_ns);
    }
  }
  return v;
}

TelemetryPlan telemetry_from_json(const Value& v) {
  if (!v.is_object()) fail("'telemetry' must be an object");
  TelemetryPlan t;
  for (const auto& [key, val] : v.members()) {
    if (key == "sampler") {
      t.sampler = val.as_bool();
    } else if (key == "sample_period_ns") {
      t.sample_period_ns = static_cast<sim::Duration>(val.as_i64());
    } else if (key == "flight_recorder") {
      t.flight_recorder = val.as_bool();
    } else if (key == "flight_capacity") {
      t.flight_capacity = static_cast<int>(val.as_i64());
    } else if (key == "timeline") {
      t.timeline = val.as_bool();
    } else if (key == "blame") {
      t.blame = val.as_bool();
    } else if (key == "blame_worst") {
      t.blame_worst = static_cast<int>(val.as_i64());
    } else if (key == "blame_threshold_ns") {
      t.blame_threshold_ns = val.as_u64();
    } else {
      fail("unknown telemetry key '" + key + "'");
    }
  }
  return t;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

/// Parse-time override-key check: reject a typo where it was written, with
/// a did-you-mean hint, instead of letting it ride to validate()/run time.
void check_override_keys(const Value& overrides) {
  const std::vector<std::string> known = kernel_override_keys();
  for (const auto& [key, val] : overrides.members()) {
    (void)val;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string best;
    std::size_t best_d = 4;  // suggest only near-misses
    for (const auto& k : known) {
      const std::size_t d = edit_distance(key, k);
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    std::string msg = "unknown kernel override '" + key + "'";
    if (!best.empty()) msg += " (did you mean '" + best + "'?)";
    fail(msg);
  }
}

}  // namespace

json::Value ScenarioSpec::to_json() const {
  Value v = Value::object();
  v.set("name", name);
  v.set("title", title);
  v.set("description", description);
  v.set("group", group);
  v.set("machine", machine);
  v.set("kernel", kernel);
  v.set("kernel_overrides", kernel_overrides);
  v.set("ht_override", ht_override ? Value(*ht_override) : Value());
  Value wl = Value::array();
  for (const auto& w : workloads) {
    Value e = Value::object();
    e.set("name", w.name);
    e.set("params", w.params);
    wl.push(std::move(e));
  }
  v.set("workloads", std::move(wl));
  v.set("probe", probe);
  v.set("probe_params", probe_params);
  // Emitted only when non-default so pre-mechanism spec digests — and their
  // byte-identical outputs — are unchanged.
  if (mechanism != "inband") v.set("mechanism", mechanism);
  v.set("shield", shield_to_json(shield));
  v.set("duration", duration_to_json(duration));
  // Emitted only when set so fault-free scenario digests are unchanged.
  if (!faults.empty()) v.set("faults", faults.to_json());
  if (transient) v.set("transient", true);
  if (!telemetry.is_default()) v.set("telemetry", telemetry_to_json(telemetry));
  v.set("paper_ref", paper_ref);
  return v;
}

ScenarioSpec ScenarioSpec::from_json(const json::Value& v) {
  if (!v.is_object()) fail("spec must be a JSON object");
  ScenarioSpec s;
  for (const auto& [key, val] : v.members()) {
    if (key == "name") {
      s.name = str_field(val, key);
    } else if (key == "title") {
      s.title = str_field(val, key);
    } else if (key == "description") {
      s.description = str_field(val, key);
    } else if (key == "group") {
      s.group = str_field(val, key);
    } else if (key == "machine") {
      s.machine = str_field(val, key);
    } else if (key == "kernel") {
      s.kernel = str_field(val, key);
    } else if (key == "kernel_overrides") {
      if (!val.is_object()) fail("'kernel_overrides' must be an object");
      check_override_keys(val);
      s.kernel_overrides = val;
    } else if (key == "ht_override") {
      s.ht_override =
          val.is_null() ? std::nullopt : std::optional<bool>(val.as_bool());
    } else if (key == "workloads") {
      if (!val.is_array()) fail("'workloads' must be an array");
      for (const auto& e : val.items()) {
        if (!e.is_object()) fail("workload entry must be an object");
        WorkloadRef w;
        for (const auto& [wkey, wval] : e.members()) {
          if (wkey == "name") {
            w.name = str_field(wval, "workload.name");
          } else if (wkey == "params") {
            if (!wval.is_object()) fail("workload params must be an object");
            w.params = wval;
          } else {
            fail("unknown workload key '" + wkey + "'");
          }
        }
        s.workloads.push_back(std::move(w));
      }
    } else if (key == "probe") {
      s.probe = str_field(val, key);
    } else if (key == "probe_params") {
      if (!val.is_object()) fail("'probe_params' must be an object");
      s.probe_params = val;
    } else if (key == "mechanism") {
      s.mechanism = str_field(val, key);
    } else if (key == "shield") {
      s.shield = shield_from_json(val);
    } else if (key == "duration") {
      s.duration = duration_from_json(val);
    } else if (key == "faults") {
      s.faults = fault::FaultPlan::from_json(val);
    } else if (key == "transient") {
      s.transient = val.as_bool();
    } else if (key == "telemetry") {
      s.telemetry = telemetry_from_json(val);
    } else if (key == "paper_ref") {
      s.paper_ref = str_field(val, key);
    } else {
      fail("unknown spec key '" + key + "'");
    }
  }
  return s;
}

std::string ScenarioSpec::digest() const {
  // The digest keys journal adoption, so it must cover exactly the fields
  // that can change a fixed-(seed, scale) run's output — no more, no less.
  // Presentation fields (title, description, group, paper_ref) are
  // excluded: editing prose must never invalidate a stored outcome. So is
  // `transient`: it only governs whether *failures* are retried at derived
  // seeds, never what any single (spec, seed) attempt simulates. `name`
  // stays in — it is copied into the result JSON.
  Value v = to_json();
  Value d = Value::object();
  for (const auto& [key, val] : v.members()) {
    if (key == "title" || key == "description" || key == "group" ||
        key == "paper_ref" || key == "transient") {
      continue;
    }
    d.set(key, val);
  }
  return json::content_digest(d);
}

void ScenarioSpec::validate() const {
  if (name.empty()) fail("spec has no name");
  if (!find_machine(machine)) {
    fail("'" + name + "': unknown machine preset '" + machine + "'");
  }
  const auto kcfg = find_kernel(kernel);
  if (!kcfg) fail("'" + name + "': unknown kernel preset '" + kernel + "'");
  {
    KernelConfig probe_cfg = *kcfg;
    apply_kernel_overrides(probe_cfg, kernel_overrides);  // throws on bad key
  }
  for (const auto& w : workloads) {
    if (!workload::registry_contains(w.name)) {
      fail("'" + name + "': unknown workload '" + w.name + "'");
    }
    (void)workload::make_workload(w.name, w.params);  // validates params
  }
  if (!rt::probe_contains(probe)) {
    fail("'" + name + "': unknown probe '" + probe + "'");
  }
  if (mechanism != "inband" && mechanism != "oob") {
    fail("'" + name + "': unknown mechanism '" + mechanism +
         "' (expected 'inband' or 'oob')");
  }
  if (rt::probe_duration_bound(probe)) {
    if (duration.fixed_ns == 0) {
      fail("'" + name + "': probe '" + probe +
           "' is duration-bound and needs duration.fixed_ns");
    }
  } else if (duration.fixed_ns == 0 && duration.factor <= 0.0) {
    fail("'" + name + "': duration.factor must be positive");
  }
  faults.validate(name);  // throws naming the offending fault + field
  if (telemetry.sampler && telemetry.sample_period_ns <= 0) {
    fail("'" + name + "': telemetry.sample_period_ns must be positive");
  }
  if ((telemetry.flight_recorder || telemetry.timeline) &&
      telemetry.flight_capacity <= 0) {
    fail("'" + name + "': telemetry.flight_capacity must be positive");
  }
  if (telemetry.blame && telemetry.blame_worst <= 0) {
    fail("'" + name + "': telemetry.blame_worst must be positive");
  }
}

// ---- preset lookups --------------------------------------------------------

std::vector<std::string> machine_preset_names() {
  return {"dual-p4-1400", "dual-p3-933", "dual-p4-2000-rcim",
          "quad-p4-2000-rcim"};
}

std::optional<MachineConfig> find_machine(const std::string& token) {
  if (token == "dual-p4-1400") return MachineConfig::dual_p4_xeon_1400();
  if (token == "dual-p3-933") return MachineConfig::dual_p3_xeon_933();
  if (token == "dual-p4-2000-rcim") {
    return MachineConfig::dual_p4_xeon_2000_rcim();
  }
  if (token == "quad-p4-2000-rcim") {
    return MachineConfig::quad_p4_xeon_2000_rcim();
  }
  return std::nullopt;
}

std::vector<std::string> kernel_preset_names() {
  return {"vanilla-2.4.20", "preempt-lowlat", "redhawk-1.4"};
}

std::optional<KernelConfig> find_kernel(const std::string& token) {
  if (token == "vanilla-2.4.20") return KernelConfig::vanilla_2_4_20();
  if (token == "redhawk-1.4") return KernelConfig::redhawk_1_4();
  if (token == "preempt-lowlat") return KernelConfig::patched_preempt_lowlat();
  return std::nullopt;
}

void apply_kernel_overrides(KernelConfig& cfg, const json::Value& overrides) {
  if (!overrides.is_object()) fail("kernel_overrides must be an object");
  for (const auto& [key, v] : overrides.members()) {
    if (key == "name") {
      cfg.name = v.as_string();
    } else if (key == "scheduler") {
      const std::string& s = v.as_string();
      if (s == "goodness24") {
        cfg.scheduler = SchedulerKind::kGoodness24;
      } else if (s == "o1") {
        cfg.scheduler = SchedulerKind::kO1;
      } else {
        fail("scheduler must be 'goodness24' or 'o1'");
      }
    } else if (key == "preempt_kernel") {
      cfg.preempt_kernel = v.as_bool();
    } else if (key == "low_latency") {
      cfg.low_latency = v.as_bool();
    } else if (key == "softirq_daemon_offload") {
      cfg.softirq_daemon_offload = v.as_bool();
    } else if (key == "bkl_ioctl_flag") {
      cfg.bkl_ioctl_flag = v.as_bool();
    } else if (key == "shield_support") {
      cfg.shield_support = v.as_bool();
    } else if (key == "rcim_driver") {
      cfg.rcim_driver = v.as_bool();
    } else if (key == "posix_timers") {
      cfg.posix_timers = v.as_bool();
    } else if (key == "default_hyperthreading") {
      cfg.default_hyperthreading = v.as_bool();
    } else if (key == "local_timer_period_ns") {
      cfg.local_timer_period = v.as_u64();
    } else if (key == "tick_cost_min_ns") {
      cfg.tick_cost_min = v.as_u64();
    } else if (key == "tick_cost_max_ns") {
      cfg.tick_cost_max = v.as_u64();
    } else if (key == "syscall_entry_cost_ns") {
      cfg.syscall_entry_cost = v.as_u64();
    } else if (key == "syscall_exit_cost_ns") {
      cfg.syscall_exit_cost = v.as_u64();
    } else if (key == "ctx_switch_cost_ns") {
      cfg.ctx_switch_cost = v.as_u64();
    } else if (key == "irq_entry_cost_ns") {
      cfg.irq_entry_cost = v.as_u64();
    } else if (key == "irq_exit_cost_ns") {
      cfg.irq_exit_cost = v.as_u64();
    } else if (key == "sched_pick_base_ns") {
      cfg.sched_pick_base = v.as_u64();
    } else if (key == "sched_pick_per_task_ns") {
      cfg.sched_pick_per_task = v.as_u64();
    } else if (key == "section_min_ns") {
      cfg.section_min = v.as_u64();
    } else if (key == "section_max_ns") {
      cfg.section_max = v.as_u64();
    } else if (key == "section_alpha") {
      cfg.section_alpha = v.as_double();
    } else if (key == "syscall_body_max_ns") {
      cfg.syscall_body_max = v.as_u64();
    } else if (key == "body_long_probability") {
      cfg.body_long_probability = v.as_double();
    } else if (key == "body_long_alpha") {
      cfg.body_long_alpha = v.as_double();
    } else if (key == "fd_path_contended_lock_probability") {
      cfg.fd_path_contended_lock_probability = v.as_double();
    } else if (key == "softirq_budget_in_irq_ns") {
      cfg.softirq_budget_in_irq = v.as_u64();
    } else if (key == "softirq_max_restart") {
      cfg.softirq_max_restart = static_cast<int>(v.as_i64());
    } else if (key == "ksoftirqd_chunk_ns") {
      cfg.ksoftirqd_chunk = v.as_u64();
    } else if (key == "fault_mean_interval_ns") {
      cfg.fault_mean_interval = v.as_u64();
    } else if (key == "fault_cost_min_ns") {
      cfg.fault_cost_min = v.as_u64();
    } else if (key == "fault_cost_max_ns") {
      cfg.fault_cost_max = v.as_u64();
    } else if (key == "other_timeslice_ns") {
      cfg.other_timeslice = v.as_u64();
    } else if (key == "rr_timeslice_ns") {
      cfg.rr_timeslice = v.as_u64();
    } else if (key == "oob_dispatch_cost_ns") {
      cfg.oob_dispatch_cost = v.as_u64();
    } else if (key == "oob_switch_cost_ns") {
      cfg.oob_switch_cost = v.as_u64();
    } else {
      fail("unknown kernel override '" + key + "'");
    }
  }
}

std::vector<std::string> kernel_override_keys() {
  // Must cover exactly the keys apply_kernel_overrides accepts;
  // test_scenario cross-checks by applying every listed key.
  return {"name",
          "scheduler",
          "preempt_kernel",
          "low_latency",
          "softirq_daemon_offload",
          "bkl_ioctl_flag",
          "shield_support",
          "rcim_driver",
          "posix_timers",
          "default_hyperthreading",
          "local_timer_period_ns",
          "tick_cost_min_ns",
          "tick_cost_max_ns",
          "syscall_entry_cost_ns",
          "syscall_exit_cost_ns",
          "ctx_switch_cost_ns",
          "irq_entry_cost_ns",
          "irq_exit_cost_ns",
          "sched_pick_base_ns",
          "sched_pick_per_task_ns",
          "section_min_ns",
          "section_max_ns",
          "section_alpha",
          "syscall_body_max_ns",
          "body_long_probability",
          "body_long_alpha",
          "fd_path_contended_lock_probability",
          "softirq_budget_in_irq_ns",
          "softirq_max_restart",
          "ksoftirqd_chunk_ns",
          "fault_mean_interval_ns",
          "fault_cost_min_ns",
          "fault_cost_max_ns",
          "other_timeslice_ns",
          "rr_timeslice_ns",
          "oob_dispatch_cost_ns",
          "oob_switch_cost_ns"};
}

}  // namespace config
