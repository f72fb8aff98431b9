// Experiment T11 -- Theorem 4.1 (round-error-rate resilience) and the
// potential dynamics of Lemmas 4.4/4.9.
// Claims: r' = 5r global rounds absorb any f*r' total corruption budget;
// Phi gains >= +1 on good global rounds, loses <= 3 on bad ones, and ends
// >= r (Lemma 4.10).
// Measured here: the Phi trajectory and per-global-round good/bad
// accounting, which instrument shared compiler state, so this is a single
// hand-rolled sequential run.  Output equivalence under the two burst
// shapes is the rewind_* lines of campaigns/paper_headline.campaign.
#include <iostream>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/expander_packing.h"
#include "compile/rewind_compiler.h"
#include "exp/bench_args.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/table.h"

using namespace mobile;

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);

  std::cout << "# T11: Rewind-if-error compiler (Theorem 4.1)\n\n";
  std::cout << "## Potential trajectory Phi(i) (Eq. 10)\n\n";
  const int n = args.smoke ? 6 : 8;
  const graph::Graph g = graph::clique(n);
  const auto pk = compile::cliquePackingKnowledge(g);
  const sim::Algorithm inner = algo::makePingPong(g, 0, 1, 2, 0x111, 0x222, 32);
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
  exp::maybeWriteReports(args, "T11_rewind", {});
  return 0;
}
