// Figures 5 & 6: realfeel RTC interrupt response under the stress-kernel
// load.
//
//  Fig 5: kernel.org 2.4.20 (no low-latency, no preemption) — the paper
//         measured max latency 92.3 ms with 99.140% of samples < 0.1 ms.
//  Fig 6: RedHawk 1.4 with CPU 1 shielded, RTC IRQ + realfeel bound to
//         CPU 1 — the paper measured max latency 0.565 ms.
//
// The paper ran 60,000,000 samples (~8 h at 2048 Hz); the default here is
// smaller for runtime, with the contended-lock probability documented in
// DESIGN.md calibrated for this scale. Use --paper for longer runs.
//
// The scenarios are registry entries fig5/fig6. `shieldctl blame fig6`
// with the same --seed and --scale decomposes the worst sample of exactly
// the fig6 run this bench prints.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario_bench.h"

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const std::uint64_t samples = opt.scaled(2'000'000);

  bench::print_header(
      "Figures 5-6: RTC interrupt response (realfeel @2048 Hz, "
      "stress-kernel load)");
  std::printf("samples per configuration: %llu (paper: 60,000,000)\n",
              static_cast<unsigned long long>(samples));

  const auto specs = bench::specs_for({"fig5", "fig6"});
  auto runner = bench::make_runner(opt);

  const auto results = runner.run_batch(specs, opt.seed);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::fputs(results[i].render(specs[i]).c_str(), stdout);
  }

  std::printf(
      "\nPaper reference: Fig5 max 92.3 ms (99.140%% < 0.1 ms); "
      "Fig6 max 0.565 ms (99.99989%% < 0.1 ms)\n");
  return bench::exit_code(bench::all_complete(results));
}
