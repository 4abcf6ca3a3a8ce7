// Central metric registry: named counters, gauges and histograms with
// per-cell sharding (cells are usually CPUs, sometimes locks or IRQ lines).
//
// The simulation is single-threaded: a batch runs its Platforms one at a
// time on a lane, and lanes are separate worker processes, so cells are
// plain uint64_t — no atomics anywhere on the hot path. Components register
// metrics once at construction:
//
//   * Counter   — registry-owned storage; the component increments through
//                 a small handle (one pointer indirection per add).
//   * Gauge     — pull-based: a callback sampled only when a snapshot or
//                 export is taken. Registering a gauge over an existing
//                 field costs the hot path nothing at all.
//   * Histogram — wraps metrics::LatencyHistogram per cell.
//
// Registration is idempotent by name: re-registering returns the existing
// metric (gauges re-bind their callback, so a second Kernel constructed on
// a reused Engine replaces the dead closure instead of leaving a dangling
// one). Snapshot order is registration order and is stable across runs of
// the same platform shape, which is what makes sampler timelines and
// Prometheus exports diffable between runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/histogram.h"
#include "sim/time.h"

namespace telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind k);

class Registry {
  struct Metric;

 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Handle for a registered counter. Cheap to copy; valid as long as the
  /// registry lives. add() is the only hot-path operation in this file.
  class Counter {
   public:
    Counter() = default;
    void add(int cell, std::uint64_t delta) {
      if (m_ != nullptr) cell_slot(cell) += delta;
    }
    void inc(int cell) { add(cell, 1); }
    [[nodiscard]] std::uint64_t value(int cell) const;
    [[nodiscard]] bool valid() const { return m_ != nullptr; }

   private:
    friend class Registry;
    explicit Counter(Metric* m) : m_(m) {}
    std::uint64_t& cell_slot(int cell);
    Metric* m_ = nullptr;
  };

  /// Handle for a registered histogram.
  class Histogram {
   public:
    Histogram() = default;
    void add(int cell, sim::Duration v);
    [[nodiscard]] const metrics::LatencyHistogram* cell(int cell) const;
    [[nodiscard]] bool valid() const { return m_ != nullptr; }

   private:
    friend class Registry;
    explicit Histogram(Metric* m) : m_(m) {}
    Metric* m_ = nullptr;
  };

  /// Handle for a push-style gauge: a kGauge metric backed by registry-owned
  /// storage that the owner set()s directly. For host-side components (the
  /// campaign supervisor) whose state lives in local variables of an event
  /// loop — there is no stable object for a pull callback to sample, so the
  /// loop pushes the level instead. Exports exactly like a pull gauge.
  class Setting {
   public:
    Setting() = default;
    void set(int cell, std::uint64_t v);
    [[nodiscard]] std::uint64_t value(int cell) const;
    [[nodiscard]] bool valid() const { return m_ != nullptr; }

   private:
    friend class Registry;
    explicit Setting(Metric* m) : m_(m) {}
    Metric* m_ = nullptr;
  };

  using GaugeFn = std::function<std::uint64_t(int cell)>;

  /// Register (or look up) a counter with `cells` shards. `cell_label`
  /// names the shard dimension ("cpu", "lock", "irq"; empty for a scalar);
  /// `cell_names` optionally names individual shards for exports.
  Counter counter(std::string_view name, std::string_view help, int cells,
                  std::string_view cell_label = "cpu",
                  std::vector<std::string> cell_names = {});

  /// Register (or re-bind) a pull-based gauge. `fn` is called with the cell
  /// index at snapshot/export time only. Re-registration replaces the
  /// callback — required when a new component instance reuses the name.
  void gauge(std::string_view name, std::string_view help, int cells,
             std::string_view cell_label, GaugeFn fn,
             std::vector<std::string> cell_names = {});

  /// Register (or look up) a push-style gauge (see Setting). Levels persist
  /// in the registry between set() calls; reset() zeroes them like counters.
  Setting settable_gauge(std::string_view name, std::string_view help,
                         int cells, std::string_view cell_label = "",
                         std::vector<std::string> cell_names = {});

  Histogram histogram(std::string_view name, std::string_view help, int cells,
                      std::string_view cell_label = "cpu",
                      std::vector<std::string> cell_names = {});

  /// Current value of one cell of a named metric (counter cell, gauge call,
  /// or histogram sample count). Returns 0 when the metric or cell does not
  /// exist — procfs views use this so a missing registration reads as zero
  /// rather than crashing the text renderer.
  [[nodiscard]] std::uint64_t value(std::string_view name, int cell = 0) const;

  /// Whether a metric with this name exists.
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Number of registered metrics.
  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }

  /// Total number of flattened series (sum of cell counts).
  [[nodiscard]] std::size_t series_count() const;

  /// Flattened series names in snapshot order: "name" for scalars,
  /// "name[label/cellname]" for sharded metrics.
  [[nodiscard]] std::vector<std::string> series_names() const;

  /// Flattened current values in the same order as series_names().
  /// Histogram series report their sample count.
  [[nodiscard]] std::vector<std::uint64_t> snapshot_values() const;

  /// One flattened sample, for top-N views.
  struct Sample {
    std::string series;
    MetricKind kind;
    std::uint64_t value;
  };
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Prometheus text exposition: HELP/TYPE comments plus one line per cell,
  /// names sanitized and prefixed with "shieldsim_". Histograms export
  /// _count, _sum_ns and _max_ns series.
  [[nodiscard]] std::string prometheus_text() const;

  /// Zero all counter cells and clear all histograms. Gauges are views
  /// over component state and are unaffected — their sources reset through
  /// the owning component (see kernel::Kernel::reset_latency_counters).
  void reset();

 private:
  Metric* find(std::string_view name) const;
  Metric& intern(std::string_view name, std::string_view help,
                 MetricKind kind, int cells, std::string_view cell_label,
                 std::vector<std::string> cell_names);

  std::vector<Metric*> metrics_;  // owned; stable addresses for handles
};

}  // namespace telemetry
