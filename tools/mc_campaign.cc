// mc_campaign: the declarative campaign runner.
//
//   mc_campaign [flags] CAMPAIGN_FILE...
//
// Expands each campaign file's scenario lines (src/scn) into trial grids,
// fans them over the exp::ExperimentDriver, streams per-trial JSON lines
// to the campaign's .jsonl record, and prints the standard sweep summary.
// Re-running against an existing record skips every completed grid point
// (resume), so an interrupted sweep continues where it died and a
// finished one is a no-op -- CI asserts exactly that.
//
// Shared fleet flags (exp::parseBenchArgs): --threads, --seed (shifts
// every point's seed axis), --json / --csv (aggregate reports over the
// trials executed *this run*), --list (print the scenario registries and
// exit), --smoke (accepted for fleet uniformity; campaign files pick
// their own grid sizes), --trace PATH (Chrome trace-event JSON of the
// whole run -- campaign/trial/round/phase spans plus the metrics
// snapshot; under --spawn each rank worker writes PATH[.rank<r>]).  Own flags: --out PATH (JSONL record; default
// CAMPAIGN_<name>.jsonl), --fresh (truncate the record instead of
// resuming), --dry (expand + validate every grid point, run nothing),
// --spawn N (loopback multi-process mode: fork N rank workers wired
// through MOBILE_NET_WORLD/RANK/PORT; transport=udp points partition
// their node sets across the workers, rank 0 merges and records),
// --port P (UDP base port for --spawn; rank r binds 127.0.0.1:P+r),
// --rank-threads N (default 1: engine threads *inside* each trial --
// NetworkOptions::numThreads -- for points that do not pin a threads=
// axis themselves; the way a --spawn rank, whose trial lanes are pinned
// to 1 by the lock-step policy, still uses N cores).
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "exp/bench_args.h"
#include "obs/obs.h"
#include "scn/campaign.h"
#include "scn/registry.h"
#include "util/table.h"

using namespace mobile;

namespace {

int envInt(const char* name, int dflt) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : dflt;
}

/// Forks `world` rank workers, each falling through to the normal runner
/// with MOBILE_NET_WORLD/RANK/PORT set; the parent only reaps.  Returns
/// the worst child exit code.  Must run before any threads exist.
int spawnWorkers(int world, int basePort) {
  std::vector<pid_t> kids;
  kids.reserve(static_cast<std::size_t>(world));
  for (int rank = 0; rank < world; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("mc_campaign: fork");
      for (const pid_t kid : kids) ::kill(kid, SIGTERM);
      return 2;
    }
    if (pid == 0) {
      ::setenv("MOBILE_NET_WORLD", std::to_string(world).c_str(), 1);
      ::setenv("MOBILE_NET_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("MOBILE_NET_PORT", std::to_string(basePort).c_str(), 1);
      return -1;  // child: continue into the runner
    }
    kids.push_back(pid);
  }
  int worst = 0;
  for (const pid_t kid : kids) {
    int status = 0;
    ::waitpid(kid, &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    if (code > worst) worst = code;
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv,
                                                  /*allowUnknown=*/true);
  if (args.list) {
    scn::printRegistries(std::cout);
    return 0;
  }

  std::string outPath;
  bool fresh = false;
  bool dry = false;
  int spawn = 0;
  int basePort = 47810;
  int rankThreads = 1;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(a, "--fresh") == 0) {
      fresh = true;
    } else if (std::strcmp(a, "--dry") == 0) {
      dry = true;
    } else if (std::strcmp(a, "--spawn") == 0 && i + 1 < argc) {
      spawn = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--port") == 0 && i + 1 < argc) {
      basePort = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--rank-threads") == 0 && i + 1 < argc) {
      rankThreads = std::atoi(argv[++i]);
    } else if (a[0] == '-') {
      std::fprintf(stderr,
                   "%s: unknown flag '%s' (own flags: --out PATH, --fresh, "
                   "--dry, --spawn N, --port P, --rank-threads N; plus the "
                   "shared bench flags)\n",
                   argv[0], a);
      return 2;
    } else {
      files.emplace_back(a);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: %s [flags] CAMPAIGN_FILE...\n", argv[0]);
    return 2;
  }

  if (spawn > 1 && !dry) {
    // Fork the rank fleet before any threads or sockets exist; each child
    // re-enters here with its rank in the environment and runs the normal
    // path below.  The parent reaps and reports.
    const int rc = spawnWorkers(spawn, basePort);
    if (rc >= 0) {
      // The rank workers inherited the armed --trace flush and wrote their
      // own files; the coordinator's empty trace must not clobber rank 0's.
      obs::cancelTraceFile();
      std::cout << "# spawned " << spawn << " rank worker(s), worst exit "
                << rc << "\n";
      return rc;
    }
  }

  const int world = envInt("MOBILE_NET_WORLD", 1);
  const int rank = envInt("MOBILE_NET_RANK", 0);

  int rc = 0;
  for (const std::string& file : files) {
    try {
      const scn::Campaign campaign = scn::loadCampaignFile(file);
      scn::CampaignOptions opts;
      opts.threads = args.threads;
      opts.rankThreads = rankThreads;
      opts.seedOffset = args.seed;
      opts.resume = !fresh;
      opts.worldSize = world;
      opts.rank = rank;
      opts.jsonlPath =
          outPath.empty() ? "CAMPAIGN_" + campaign.name + ".jsonl" : outPath;

      // Replicas keep quiet: rank 0 owns the record and the narration.
      const bool chatty = rank == 0;
      if (chatty)
        std::cout << "# campaign " << campaign.name << " (" << file << ")\n";
      if (dry) {
        // Expand and lower every point (validating all axes) but run
        // nothing: the cheap pre-flight for a big sweep.
        const auto specs = scn::buildCampaignSpecs(campaign, args.seed);
        scn::printScenarios(std::cout, campaign);
        std::cout << specs.size() << " grid points validated (dry run)\n";
        continue;
      }
      const scn::CampaignRun run = scn::runCampaign(campaign, opts);
      if (chatty) {
        std::cout << run.points << " grid points, " << run.skipped
                  << " already recorded (resume), " << run.executed
                  << " executed on "
                  << (world > 1 ? 1 : opts.threads) << " trial lane(s)"
                  << (opts.rankThreads > 1
                          ? " x " + std::to_string(opts.rankThreads) +
                                " engine thread(s)"
                          : std::string())
                  << (world > 1
                          ? " x " + std::to_string(world) + " rank(s)"
                          : std::string())
                  << " -> " << opts.jsonlPath << "\n";
        if (!run.results.empty()) {
          std::cout << "\n";
          exp::summaryTable(exp::aggregate(run.results)).print(std::cout);
        }
        exp::maybeWriteReports(args, campaign.name, run.results);
      }
    } catch (const scn::ScnError& e) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(), e.what());
      rc = 1;
    }
  }
  return rc;
}
