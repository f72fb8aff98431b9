// Shared command-line surface for every bench (and example) binary.
//
// All harness binaries understand the same flags, so CI can sweep the
// whole bench fleet mechanically (scripts/smoke_bench.sh):
//   --smoke          tiny n/f grids, few seeds -- seconds, not minutes
//   --threads N      trial/engine parallelism, N >= 1 (explicit N < 1 is
//                    clamped to 1 with a warning; omitting the flag means
//                    hardware concurrency)
//   --json PATH      write the aggregate GroupSummary report (BENCH_*.json)
//   --csv PATH       write the raw per-trial records
//   --seed N         base seed offset for the binary's sweeps (default 0)
//   --list           print the scn registries (graph families, payloads,
//                    compilers, adversaries) and exit; only mc_campaign
//                    acts on it, every other binary accepts and ignores it
//   --trace PATH     enable observability and write a Chrome trace-event
//                    JSON (spans + metrics snapshot) to PATH at exit; a
//                    note is printed and the flag ignored when obs is
//                    compiled out (-DMOBILE_CONGEST_OBS=OFF)
// Recognized flags are consumed (argc/argv are compacted) so wrappers like
// bench_micro can forward the remainder to Google Benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace mobile::exp {

struct BenchArgs {
  bool smoke = false;
  /// Lanes for ExperimentDriver / NetworkOptions::numThreads.  Always >= 1
  /// after parseBenchArgs: an omitted flag resolves to every core the
  /// hardware offers, an explicit value < 1 is clamped to 1 (with a
  /// warning on stderr).
  int threads = 0;
  std::string jsonPath;
  std::string csvPath;
  /// Base seed offset applied by the binary to its sweeps (campaign
  /// runners shift every grid point's seed axis by this).
  std::uint64_t seed = 0;
  /// --list: print the scn registry catalog and exit instead of running
  /// (mc_campaign; the benches ignore it).
  bool list = false;
  /// --trace: Chrome trace output path.  parseBenchArgs already armed
  /// obs::enableTracingToFile with it; kept here for reporting.
  std::string tracePath;
};

/// Parses and REMOVES recognized flags from argc/argv.  Prints usage and
/// exits 0 on --help; complains and exits 2 on an unknown flag unless
/// `allowUnknown` (set by wrappers that forward leftover args elsewhere).
/// `threads` is resolved to a concrete lane count (>= 1) before returning.
[[nodiscard]] BenchArgs parseBenchArgs(int& argc, char** argv,
                                       bool allowUnknown = false);

/// Writes the CSV/JSON reports requested on the command line (no-op when
/// the flags were not given).  `bench` names the experiment ("T5", ...).
void maybeWriteReports(const BenchArgs& args, const std::string& bench,
                       const std::vector<TrialResult>& trials);

}  // namespace mobile::exp
