// Figure 7: RCIM interrupt response on a shielded CPU (§6.3).
//
// RedHawk 1.4 on a dual 2.0 GHz P4 Xeon with the RCIM PCI card. Load:
// stress-kernel + X11perf on the console + ttcp over 10BaseT Ethernet.
// CPU 1 is shielded; the RCIM timer interrupt and the measuring task are
// bound to it. The ioctl wait path sets the multithreaded-driver flag, so
// no BKL is taken (the kernel change described in §6.3).
//
// Paper: min 11 us, avg 11.3 us, max 27 us over 10,000,000 interrupts.
// The scenario is the registry entry fig7; this binary renders it.
// `shieldctl blame fig7` with the same --seed and --scale decomposes its
// worst sample.
#include <cstdio>
#include <span>

#include "bench_util.h"
#include "metrics/report.h"
#include "scenario_bench.h"

using namespace sim::literals;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const std::uint64_t samples = opt.scaled(2'000'000);

  bench::print_header(
      "Figure 7: RCIM interrupt response, shielded CPU "
      "(stress-kernel + x11perf + ttcp-over-Ethernet)");
  std::printf("samples: %llu (paper: 10,000,000)\n",
              static_cast<unsigned long long>(samples));

  const auto specs = bench::specs_for({"fig7"});
  auto runner = bench::make_runner(opt);

  const auto r = runner.run_batch(specs, opt.seed)[0];

  if (!r.probe.complete) {
    std::printf("WARNING: only %llu/%llu samples collected\n",
                static_cast<unsigned long long>(r.probe.collected),
                static_cast<unsigned long long>(r.probe.expected));
  }
  std::fputs(metrics::min_avg_max_line(r.probe.primary).c_str(), stdout);
  std::printf("overruns (period missed entirely): %llu\n",
              static_cast<unsigned long long>(r.probe.stats.at("overruns")));
  const sim::Duration edges[] = {10_us, 15_us, 20_us, 25_us,
                                 30_us, 50_us, 100_us};
  std::fputs(
      metrics::cumulative_bucket_table(r.probe.primary, std::span(edges))
          .c_str(),
      stdout);
  std::fputs(metrics::ascii_histogram(r.probe.primary).c_str(), stdout);

  std::printf(
      "\nPaper reference: min 11 us / avg 11.3 us / max 27 us; "
      "all 10,000,000 samples < 0.03 ms\n");
  return bench::exit_code(r.probe.complete);
}
