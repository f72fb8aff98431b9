// Theorem 3.5 / Algorithm ImprovedMobileByzantineSim: compiling any
// fault-free algorithm into an f-mobile-byzantine-resilient one, given
// distributed knowledge of a weak (k, DTP, eta) tree packing.
//
// Every round i of the inner algorithm A is simulated by one *phase*:
//
//   Step 1  (1 round)      all nodes exchange their round-i messages.
//   Step 2  (z iterations) mismatch correction: every node streams its
//       sent messages (+1) and received estimates (-1) into sketches, so
//       matching transmissions cancel and mismatches survive; the root's
//       seeds flood down every tree, the sketches merge up, the root
//       extracts the dominating mismatches (DM) and ECC-broadcasts them
//       down all k trees (Lemma 3.6), and every node patches its
//       estimates: one block of the MismatchCorrection stage, which rewind
//       runs too (tree_stages.h, docs/architecture.md section 7.1).
//       CorrectionMode picks its sketch, once per compiled algorithm: t
//       l0-samplers per tree (sketch::L0Bundle) with the Delta_j support
//       threshold of Eq. 8, or one O(f)-sparse recovery sketch with a
//       majority across trees.
//       Real mismatches halve each iteration w.h.p. (Lemma 3.8), so after
//       z = O(log f) iterations all estimates are exact.
//   Step 3  deliver the corrected messages to the inner A instance.
//
// Round cost per phase: 1 + z * (sketch block + ECC block) * eta * rho,
// i.e. ~O(DTP * log f * eta) scheduled rounds -- the paper's ~O(DTP) up to
// the log factors it hides.  The rho repetitions of an up-wave hop resend
// one message: SketchConvergecast builds a tree's sketch once per step and
// holds it until the step advances or a child's sketch merges into that
// tree, so only the senders of the current step hold one (~5 KB for the
// l0 bundle at the defaults).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "compile/common.h"
#include "compile/ecc_broadcast.h"
#include "compile/rs_engine.h"
#include "sim/network.h"
#include "sim/node.h"

namespace mobile::compile {

/// Which of the paper's two correction strategies drives Step 2.
enum class CorrectionMode {
  /// Section 3.2: z = O(log f) iterations of t l0-samplers per tree with
  /// the Delta_j dominating-mismatch threshold -- ~O(DTP) overhead.
  L0Iterative,
  /// Section 1.2.2: one shot of an O(f)-sparse recovery sketch per tree
  /// with majority voting across trees -- ~O(DTP + f) overhead (the sketch
  /// payload grows linearly with f, visible as message width).
  SparseOneShot,
};

// The compiler's tuning constants: the paper's Theta-constants, fixed for
// every run.  The ECC margin c'' is kCPP (compile/ecc_broadcast.h), shared
// with the rewind compiler.

/// t: independent l0-sketches per tree per iteration (paper: Theta(log n)).
/// The one place t is set.
inline constexpr int kTSketches = 5;
/// Geometric levels per l0-sketch (supports up to ~2^(levels-2) keys).
inline constexpr unsigned kSketchLevels = 14;
/// Support threshold scale: Delta_j = max(1, theta * 2^j * k * t / f).
inline constexpr double kTheta = 0.05;
/// SparseOneShot: sparsity budget multiplier (sketch holds
/// kSparseSlack * 4f entries; sent+received copies of 2f mismatches).
inline constexpr int kSparseSlack = 2;
/// SparseOneShot: rows per sparse-recovery sketch.
inline constexpr int kSparseRows = 5;
/// Per-hop repetition factor rho of the scheduled tree stages.
inline constexpr int kByzRho = 3;

struct ByzOptions {
  CorrectionMode correction = CorrectionMode::L0Iterative;
  /// Cap on transported dominating-mismatch entries (0 = auto, 2f + 8).
  int dmCap = 0;
};

/// Fixed round layout of the compiled algorithm (all nodes know it).
struct ByzSchedule {
  /// z: correction iterations, ceil(log2(2f)) + 2 (1 for SparseOneShot).
  int z = 0;
  int sketchSteps = 0;     // 2*DTP + 1
  int eccSteps = 0;        // chunks * (DTP + 1): one share per hop
  int chunks = 0;
  int roundsPerIteration = 0;
  int roundsPerSimRound = 0;
  std::int64_t totalRounds = 0;  // 64-bit: may pass INT_MAX

  [[nodiscard]] static ByzSchedule compute(const PackingKnowledge& pk,
                                           int innerRounds, int f,
                                           const ByzOptions& opts);
};

/// Cross-node instrumentation: the B_j mismatch-decay series of Lemma
/// 3.8 and the ground truth it is counted against.
struct ByzShared {
  /// bj[simRound][j] = number of incorrect estimates after iteration j
  /// (index 0 = before any correction).
  std::vector<std::vector<long>> bj;

  /// Ground-truth sent messages of the current sim round:
  /// (sender, receiver) -> encoded key.  Written by senders at exchange.
  std::map<std::pair<graph::NodeId, graph::NodeId>, std::uint64_t> sentTruth;
};

/// Compiles `inner` into its f-mobile-resilient equivalent over the given
/// packing knowledge.  `shared`, when set, collects the instrumentation.
[[nodiscard]] sim::Algorithm compileByzantineTree(
    const graph::Graph& g, const sim::Algorithm& inner,
    std::shared_ptr<const PackingKnowledge> pk, int f, ByzOptions opts = {},
    std::shared_ptr<ByzShared> shared = nullptr);

}  // namespace mobile::compile
