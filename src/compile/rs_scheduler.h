// Standalone Lemma 3.3 experiment: k RS-engine-protected tree broadcasts
// scheduled in parallel over a packing with load eta.
//
// The root seeds every tree with a known value; each tree floods its value
// down under the slot schedule, every hop sent rho times and
// majority-decoded (compile/rs_engine.h).  Afterwards countCorrectTrees()
// reports, per tree, whether *every* node received the root's value -- the
// "ends correctly" statistic whose lower bound (all but O(f * eta) trees)
// Lemma 3.3 proves.
#pragma once

#include <memory>

#include "compile/common.h"
#include "sim/node.h"

namespace mobile::compile {

struct ScheduledBroadcastShared {
  std::vector<std::uint64_t> truth;                 // [tree] root value
  std::vector<std::vector<std::uint64_t>> received;  // [node][tree]
};

/// Builds the scheduled broadcast; rounds = depthBound * eta * rho.
[[nodiscard]] sim::Algorithm makeScheduledTreeBroadcast(
    const graph::Graph& g, std::shared_ptr<const PackingKnowledge> pk,
    int rho, std::shared_ptr<ScheduledBroadcastShared> shared);

/// Trees whose value reached every node intact.
[[nodiscard]] int countCorrectTrees(const ScheduledBroadcastShared& shared,
                                    const PackingKnowledge& pk);

}  // namespace mobile::compile
