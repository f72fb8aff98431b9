// Experiment T11 -- Theorem 4.1 (round-error-rate resilience) and the
// potential dynamics of Lemmas 4.4/4.9.
// Claims: r' = 5r global rounds absorb any f*r' total corruption budget;
// Phi gains >= +1 on good global rounds, loses <= 3 on bad ones, and ends
// >= r (Lemma 4.10).
// Measured: output equivalence under burst schedules (a scn campaign --
// the burst shapes are scenario lines, the budget defaults to a quarter
// of the compiled schedule via the injected _rounds), the Phi trajectory,
// and per-global-round good/bad accounting.  The Phi section instruments
// shared compiler state, so it stays a single hand-rolled sequential run.
#include <iostream>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/expander_packing.h"
#include "compile/rewind_compiler.h"
#include "exp/bench_args.h"
#include "graph/generators.h"
#include "scn/campaign.h"
#include "sim/network.h"
#include "util/table.h"

using namespace mobile;

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);
  exp::ExperimentDriver driver({args.threads});

  std::string grid =
      "name T11_rewind\n"
      "set graph=clique algo=pingpong mask=32 compile=rewind f=1 "
      "adv=burst_byz aseed=3 seed=9";
  grid += args.smoke ? " n=6 rounds=2" : "";
  grid += "\n";
  if (args.smoke) {
    grid +=
        "scenario name=dense-bursts quiet=9 width=40\n"
        "scenario name=rare-heavy-bursts quiet=29 width=100\n";
  } else {
    // The {n, r} grid {6,2}, {8,2}, {8,3} under two burst shapes: dense
    // (quiet=9, width=40) and rare-heavy (quiet=29, width=100).  quiet and
    // width move together, so each shape is its own pair of lines rather
    // than a cross product.
    grid +=
        "scenario name=dense-bursts n=6,8 rounds=2 quiet=9 width=40\n"
        "scenario name=dense-bursts-r3 n=8 rounds=3 quiet=9 width=40\n"
        "scenario name=rare-heavy-bursts n=6,8 rounds=2 quiet=29 width=100\n"
        "scenario name=rare-heavy-bursts-r3 n=8 rounds=3 quiet=29 "
        "width=100\n";
  }
  const scn::Campaign campaign = scn::parseCampaignText(grid);
  if (args.list) {
    scn::printScenarios(std::cout, campaign);
    return 0;
  }

  std::cout << "# T11: Rewind-if-error compiler (Theorem 4.1)\n\n";
  std::cout << "## Correctness under bursty round-error-rate adversaries\n\n";

  std::vector<scn::Point> points;
  const std::vector<exp::TrialSpec> specs =
      scn::buildCampaignSpecs(campaign, args.seed, &points);
  const auto results = driver.runAll(specs);

  util::Table table({"group", "payload", "global rounds", "total rounds",
                     "corruptions", "outputs ok"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    // Schedule columns recomputed at the point's parameters.
    const scn::Params p = points[i].params;
    const graph::Graph g =
        graph::clique(static_cast<graph::NodeId>(p.integer("n")));
    const auto pk = compile::cliquePackingKnowledge(g);
    const compile::RewindSchedule sched = compile::rewindSchedule(
        *pk, static_cast<int>(p.integer("rounds", 2)), 1,
        compile::RewindOptions{});
    table.addRow({r.group, "PingPong", util::Table::num(sched.globalRounds),
                  util::Table::num(sched.totalRounds),
                  util::Table::num(r.corruptions),
                  util::Table::boolean(r.ok)});
  }
  table.print(std::cout);

  std::cout << "\n## Potential trajectory Phi(i) (Eq. 10)\n\n";
  {
    const int n = args.smoke ? 6 : 8;
    const graph::Graph g = graph::clique(n);
    const auto pk = compile::cliquePackingKnowledge(g);
    const sim::Algorithm inner =
        algo::makePingPong(g, 0, 1, 2, 0x111, 0x222, 32);
    compile::RewindOptions opts;
    auto shared = std::make_shared<compile::RewindShared>();
    const compile::RewindSchedule sched =
        compile::rewindSchedule(*pk, inner.rounds, 1, opts);
    compile::computeGamma(g, inner, 1,
                          static_cast<int>(sched.globalRounds) + inner.rounds,
                          shared.get());
    adv::BurstByzantine adv(1, sched.totalRounds / 4, 9, 40, 11);
    const sim::Algorithm compiled =
        compile::compileRewind(g, inner, pk, 1, opts, shared);
    sim::Network net(g, compiled, 13, &adv);
    net.run(compiled.rounds);
    util::Table phi({"global round", "Phi", "network GoodState", "delta"});
    long prev = 0;
    int upholds = 0;
    for (std::size_t i = 0; i < shared->phi.size(); ++i) {
      const long delta = shared->phi[i] - prev;
      const bool ok =
          (shared->networkGoodState[i] == 1 && delta >= 1) ||
          (shared->networkGoodState[i] == 0 && delta >= -3);
      if (ok) ++upholds;
      phi.addRow({util::Table::num(static_cast<std::uint64_t>(i + 1)),
                  util::Table::num(shared->phi[i]),
                  util::Table::num(shared->networkGoodState[i]),
                  util::Table::num(delta)});
      prev = shared->phi[i];
    }
    phi.print(std::cout);
    std::cout << "\nLemma 4.4/4.9 deltas upheld in " << upholds << "/"
              << shared->phi.size() << " global rounds; final Phi = "
              << shared->phi.back() << " >= r = " << inner.rounds << ": "
              << (shared->phi.back() >= inner.rounds ? "yes" : "NO") << "\n";
  }
  exp::maybeWriteReports(args, "T11_rewind", results);
  return 0;
}
