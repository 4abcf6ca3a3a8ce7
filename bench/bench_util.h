// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "config/sweep_runner.h"
#include "sim/time.h"

namespace bench {

/// Command-line knobs shared by every figure bench. Defaults are sized so
/// the whole bench suite runs in minutes; pass --paper for runs closer to
/// the paper's sample counts (hours of simulated time).
struct Options {
  std::uint64_t seed = 2003;
  double scale = 1.0;  ///< multiplies sample counts / durations
  bool paper = false;
  /// Worker threads for config sweeps (0 = all hardware threads).
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
        "  --jobs N          sweep worker threads (default: all cores)\n",
        argv0);
  }

  /// Parse the shared flags. Unknown arguments are an error: a typo like
  /// `--sedd 7` must not silently run the default configuration.
  static Options parse(int argc, char** argv) {
    Options o;
    const auto need_value = [&](int i) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        usage(argv[0], stderr);
        std::exit(2);
      }
    };
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--paper") == 0) {
        o.paper = true;
        o.scale = 10.0;
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        need_value(i);
        o.seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--scale") == 0) {
        need_value(i);
        o.scale = std::strtod(argv[++i], nullptr);
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        need_value(i);
        o.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      } else if (std::strcmp(argv[i], "--help") == 0) {
        usage(argv[0], stdout);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
        usage(argv[0], stderr);
        std::exit(2);
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
