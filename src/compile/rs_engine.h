// The RS-compiler black box (Theorem 3.2, Rajagopalan-Schulman /
// Hoza-Schulman) as hop repetition -- the slot arithmetic of its schedule.
//
// The byzantine compiler only consumes one property of the RS-compiler:
// a tree protocol "ends correctly" whenever the adversary corrupts less
// than a Theta(1/m_T) fraction of its total communication.  Tree codes have
// no practical implementation, so every logical hop message is transmitted
// rho times and majority-decoded (docs/architecture.md section 12,
// substitution 1).  Flipping one logical hop costs the adversary
// ceil(rho/2) edge-rounds, so the number of trees an f-mobile adversary can
// corrupt per scheduling block is bounded by f * blockRounds / ceil(rho/2)
// -- the same "few bad trees" outcome with a different constant, which the
// benchmarks measure.
#pragma once

namespace mobile::compile {

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

}  // namespace mobile::compile
