// Shared helpers for the figure-reproduction benches.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "config/option_value.h"
#include "sim/time.h"

namespace bench {

/// Command-line knobs shared by every figure bench. Defaults are sized so
/// the whole bench suite runs in minutes; pass --paper for runs closer to
/// the paper's sample counts (hours of simulated time).
struct Options {
  std::uint64_t seed = 2003;
  double scale = 1.0;  ///< multiplies sample counts / durations
  bool paper = false;
  /// Lanes for the bench's batch (0 = all hardware threads): 1 runs it in
  /// this process, 2 or more on that many worker processes.
  unsigned jobs = 0;

  static void usage(const char* argv0, std::FILE* to) {
    std::fprintf(
        to,
        "usage: %s [--paper] [--seed N] [--scale X] [--jobs N]\n"
        "  --paper           run at ~10x the default sample counts\n"
        "  --seed N          root RNG seed (default 2003; each scenario's"
        " seed\n"
        "                    derives from it by name, as in shieldctl)\n"
        "  --scale X         multiply sample counts by X\n"
        "  --jobs N          lanes (default: all cores): 1 runs in-process,\n"
        "                    2 or more on that many worker processes\n",
        argv0);
  }

  /// Parse the shared flags. Unknown arguments and numeric values that are
  /// not wholly a number of the right kind are an error: a typo like
  /// `--sedd 7` or `--seed 7x` must not silently run another configuration.
  static Options parse(int argc, char** argv) {
    Options o;
    const auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "%s: %s\n", argv[0], what.c_str());
      usage(argv[0], stderr);
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool numeric =
          arg == "--seed" || arg == "--scale" || arg == "--jobs";
      if (numeric && i + 1 >= argc) fail("missing value for " + arg);
      const std::string text = numeric ? argv[++i] : "";
      const auto count =
          config::parse_count(text, arg == "--jobs" ? UINT_MAX : UINT64_MAX);
      const auto real = config::parse_real(text, true);
      if (arg == "--paper") {
        o.paper = true;
        o.scale = 10.0;
      } else if (arg == "--seed" && count) {
        o.seed = *count;
      } else if (arg == "--scale" && real) {
        o.scale = *real;
      } else if (arg == "--jobs" && count) {
        o.jobs = static_cast<unsigned>(*count);
      } else if (arg == "--help") {
        usage(argv[0], stdout);
        std::exit(0);
      } else if (numeric) {
        fail(arg + " expects " +
             (arg == "--scale" ? "a positive number" : "an unsigned integer") +
             ", got '" + text + "'");
      } else {
        fail("unknown argument '" + arg + "'");
      }
    }
    return o;
  }

  [[nodiscard]] std::uint64_t scaled(std::uint64_t n) const {
    const auto s = static_cast<std::uint64_t>(static_cast<double>(n) * scale);
    return s == 0 ? 1 : s;
  }
};

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_subheader(const std::string& title) {
  std::printf("\n---- %s ----\n", title.c_str());
}

/// Exit-code policy shared by the benches: a bench whose cases did not all
/// finish inside their horizons exits nonzero so CI cannot mistake a
/// truncated run for a clean one. Warnings are printed where the bench's
/// historical output format had them; this only turns them into a status.
inline int exit_code(bool all_complete) { return all_complete ? 0 : 1; }

}  // namespace bench
