// Campaign files: a sweep grid per line, a paper's experiment section per
// file.
//
// Format (line-based, '#' comments, a trailing backslash continues a
// line):
//
//   name paper_headline          # campaign label (output file naming)
//   set seed=0..4                # defaults merged into later scenarios
//   scenario name=byz graph=clique n=16,24 algo=gossip mask=32 (backslash)
//            compile=byz_tree f=1..4 adv=bitflip_byz,camping_byz
//
// Every `scenario` line is a scn::Scenario; expandCampaign applies the
// accumulated `set` defaults (scenario keys win), expands each line's
// cartesian sweep, and yields Points: the concrete Params, a group label
// (scenario name + swept coordinates), and a canonical id.
//
// runCampaign lowers the points onto exp::TrialSpecs (one TrialBuilder,
// so fault-free fingerprints are cached across the grid and packings are
// shared through exp::PrecomputeCache), fans them over an
// exp::ExperimentDriver, and streams one JSON line per finished trial to
// `jsonlPath` (append mode, flushed per line).  On a re-run against the
// same output file, points whose ids are already present are skipped --
// an interrupted campaign resumes where it died, and a completed one is
// a no-op.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "scn/scenario.h"

namespace mobile::scn {

struct Campaign {
  std::string name = "campaign";
  std::vector<Scenario> scenarios;
};

/// Parses campaign text; throws ScnError with the 1-based line number on
/// syntax errors.
[[nodiscard]] Campaign parseCampaignText(const std::string& text);
/// Reads and parses a campaign file (ScnError when unreadable).
[[nodiscard]] Campaign loadCampaignFile(const std::string& path);

/// One concrete grid point of an expanded campaign.
struct Point {
  std::string campaign;  // owning campaign's name
  std::string scenario;  // scenario label ("s<idx>" when unnamed)
  Params params;         // fully concrete axes
  std::string group;     // scenario + swept coordinates (minus seed)
  /// "<campaign>|<scenario>|<canonical params>" -- the resume key.
  /// Campaign-qualified so two campaigns sharing one --out record (and a
  /// same-named scenario slice) never skip each other's points.
  std::string id;
};

/// Expands every scenario line, campaign order preserved.
[[nodiscard]] std::vector<Point> expandCampaign(const Campaign& c);

/// Shifts every point's seed axis and re-derives its id (the --seed flag).
void applySeedOffset(std::vector<Point>& points, std::uint64_t offset);

/// The `mc_campaign --dry` pre-flight: expands `c` and lowers every point
/// through one TrialBuilder, which validates every axis, without running a
/// trial or touching the JSONL record.
[[nodiscard]] std::vector<exp::TrialSpec> buildCampaignSpecs(
    const Campaign& c, std::uint64_t seedOffset);

/// One line per scenario (label + axes + point count) -- the
/// `mc_campaign --dry` listing.
void printScenarios(std::ostream& os, const Campaign& c);

struct CampaignOptions {
  /// Trial lanes for the ExperimentDriver.  Per-rank policy: forced to 1
  /// when worldSize > 1 -- ranks advance in lock-step over the shared
  /// process transport, so concurrent trials would deadlock the round
  /// barrier.  Intra-trial parallelism stays available to ranks through
  /// `rankThreads` / the scenario `threads=` axis.
  int threads = 1;
  /// Default engine threads *inside* one trial (NetworkOptions::
  /// numThreads) for points that do not pin `threads=` themselves; the
  /// `--rank-threads` flag.  Default 1 = the strictly sequential engine.
  /// This is how a `--spawn N` rank uses more than one core: trial lanes
  /// are pinned to 1 above, but each rank may still parallelize its own
  /// send/receive phases.  Results are bit-identical at every value.
  int rankThreads = 1;
  /// Added to every point's seed axis (the --seed flag); a nonzero offset
  /// changes the point ids, so offset runs never collide on resume.
  std::uint64_t seedOffset = 0;
  /// Append-only JSONL record; empty = no file (and no resume).  Replica
  /// ranks read the resume set from it but never write it.
  std::string jsonlPath;
  /// Skip points already present in jsonlPath.
  bool resume = true;
  /// Multi-process (`--spawn`) topology: this process's rank in a world of
  /// worldSize.  Replicas (rank != 0) run only transport=udp points --
  /// arena points are rank 0's alone -- and record nothing.
  int worldSize = 1;
  int rank = 0;
};

struct CampaignRun {
  std::size_t points = 0;    // grid size after expansion
  std::size_t skipped = 0;   // already present in the JSONL (resume)
  std::size_t executed = 0;  // trials actually run
  /// Results of the executed trials, in point order.
  std::vector<exp::TrialResult> results;
  /// The executed points, parallel to `results`.
  std::vector<Point> ran;
};

[[nodiscard]] CampaignRun runCampaign(const Campaign& c,
                                      const CampaignOptions& opts);

/// Point ids recorded in an existing JSONL results file (missing file =
/// empty set).
[[nodiscard]] std::set<std::string> completedPoints(
    const std::string& jsonlPath);

}  // namespace mobile::scn
