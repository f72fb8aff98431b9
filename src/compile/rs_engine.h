// The RS-compiler black box (Theorem 3.2, Rajagopalan-Schulman /
// Hoza-Schulman) -- engine selection and the ideal-functionality support.
//
// The byzantine compiler only consumes one property of the RS-compiler:
// a tree protocol "ends correctly" whenever the adversary corrupts less
// than a Theta(1/m_T) fraction of its total communication.  Tree codes have
// no practical implementation, so we provide two backends
// (docs/architecture.md section 12, substitution 1):
//
//  * HopRepetition (default; fully distributed): every logical hop message
//    is transmitted rho times and majority-decoded.  Flipping one logical
//    hop costs the adversary ceil(rho/2) edge-rounds, so the number of
//    trees an f-mobile adversary can corrupt per scheduling block is
//    bounded by f * blockRounds / ceil(rho/2) -- the same "few bad trees"
//    outcome with a different constant, which the benchmarks measure.
//
//  * Contract (ideal functionality): transport runs plainly (rho = 1);
//    at block boundaries the compiler consults the simulator's ground-truth
//    CorruptionLedger and delivers the *fault-free* result for every tree
//    whose corruption count stayed below steps/cRS, and the transported
//    (adversarially influenced) result otherwise -- exactly the guarantee
//    the paper's theorems assume.  Requires globally consistent packing
//    knowledge.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "adv/adversary.h"
#include "compile/common.h"

namespace mobile::compile {

enum class EngineMode { HopRepetition, Contract };

struct EngineOptions {
  EngineMode mode = EngineMode::HopRepetition;
  /// Per-hop repetition factor (HopRepetition mode).
  int rho = 3;
  /// Contract threshold divisor: a tree protocol with S scheduled steps
  /// tolerates floor(S / cRS) corrupted edge-rounds (Contract mode).
  int cRS = 4;

  [[nodiscard]] int effectiveRho() const {
    return mode == EngineMode::HopRepetition ? rho : 1;
  }
};

/// One round's place in a scheduled block: 1-based logical step, then the
/// repetition and the schedule slot within it.
struct SlotPos {
  int step = 0;
  int rep = 0;
  int slot = 0;
};

/// Slot arithmetic of the Lemma 3.3 scheduler.  A block of S logical steps
/// over a packing with load eta and repetition rho occupies
/// S * rho * eta rounds:  round index r (0-based within the block)
/// decomposes into (step, rep, slot).
struct SlotSchedule {
  int eta = 1;
  int rho = 1;

  [[nodiscard]] int roundsPerStep() const { return eta * rho; }
  [[nodiscard]] int blockRounds(int steps) const {
    return steps * roundsPerStep();
  }
  [[nodiscard]] int stepOf(int r) const { return r / roundsPerStep(); }
  [[nodiscard]] int repOf(int r) const { return (r % roundsPerStep()) / eta; }
  [[nodiscard]] int slotOf(int r) const { return r % eta; }
  [[nodiscard]] SlotPos at(int r) const {
    return {stepOf(r) + 1, repOf(r), slotOf(r)};
  }
};

/// Ground-truth helper for Contract mode: per-tree global edge sets plus
/// corruption counting over a round window.
class ContractOracle {
 public:
  ContractOracle(std::shared_ptr<adv::CorruptionLedger> ledger,
                 const PackingKnowledge& pk, const graph::Graph& g);

  /// Corrupted edge-rounds touching tree `t`'s edges in [fromRound, toRound].
  [[nodiscard]] long corruptions(int tree, int fromRound, int toRound) const;

  /// Whether tree `t` "ends correctly" per the Theorem 3.2 contract for a
  /// protocol with `steps` logical steps in the given window.
  [[nodiscard]] bool survives(int tree, int fromRound, int toRound, int steps,
                              int cRS) const;

 private:
  std::shared_ptr<adv::CorruptionLedger> ledger_;
  std::vector<std::set<graph::EdgeId>> treeEdges_;
};

}  // namespace mobile::compile
