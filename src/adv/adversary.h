// Adversary framework (Section 1.4 of the paper).
//
// Two families:
//  * eavesdroppers -- passive; observe both directions of <= f chosen edges
//    per round (static: a fixed set; mobile: a fresh set each round);
//  * byzantine -- active; see *all* traffic every round and rewrite both
//    arcs of <= f chosen edges (static / mobile / round-error-rate, where
//    the budget is f * r edge-rounds in total, burstable).
//
// All adversaries know the topology and the algorithm but are oblivious to
// node-private randomness: strategies receive only the graph, the round
// number, current messages (byzantine) or their own past observations
// (eavesdroppers), and an adversary-private RNG.
//
// The TamperView enforces the per-model budgets and snapshots each touched
// edge's pre-image *copy-on-touch*: the first corruption of an edge in a
// round materializes both arcs' current messages, so the Network's ledger
// ground truth is a diff over O(touched edges), never over the whole plane
// (mutation outside the view is impossible -- the arena plane is only
// reachable through it).  All per-round adversary state lives in a
// TamperScratch the Network owns and lends to each round's view, so the
// steady state allocates nothing: touched edges are a sorted flat vector,
// and pre-image snapshots are (offset, len) slices of one shared word
// arena.  The CorruptionLedger stays the ground truth used by accounting
// and tests, owned by the Network and read through Network::ledger(); it
// stores its history sparsely (edges tagged with their round) so a
// fault-free round costs nothing and recording a corruption never
// allocates after warm-up.  docs/architecture.md section 2
// describes the contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/message.h"
#include "sim/sharded_plane.h"
#include "util/rng.h"

namespace mobile::adv {

using graph::ArcId;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using sim::Msg;

enum class Kind { Eavesdrop, Byzantine };
enum class Mobility { Static, Mobile, RoundErrorRate };

struct Spec {
  Kind kind = Kind::Byzantine;
  Mobility mobility = Mobility::Mobile;
  int f = 0;                 // per-round edge budget (RER: the average rate)
  long totalBudget = 0;      // RER only: f * r edge-rounds
  std::vector<EdgeId> staticSet;  // Static only: the fixed F*
};

/// One observation by an eavesdropper: both directions of one edge.
struct ViewRecord {
  int round = 0;
  EdgeId edge = -1;
  Msg uv;  // message u -> v (edge endpoints with u < v)
  Msg vu;
};

/// Ground truth of byzantine interference, filled by the Network.
/// History is sparse: `entries_` concatenates every recorded edge in
/// round order and `entryRound_` tags each with its 0-based round index,
/// so a round that records nothing costs nothing -- beginRound() is a
/// counter bump (never allocates; fault-free steady-state rounds stay
/// heap-silent, pinned by the test_obs probe) and record() only pays the
/// amortized growth of the actual corruption history.
class CorruptionLedger {
 public:
  void beginRound() { ++roundsBegun_; }
  void record(EdgeId e) {
    entries_.push_back(e);
    entryRound_.push_back(
        roundsBegun_ == 0 ? 0 : static_cast<int>(roundsBegun_) - 1);
    ++total_;
  }
  [[nodiscard]] long total() const { return total_; }

  /// Number of rounds begun so far.
  [[nodiscard]] std::size_t rounds() const { return roundsBegun_; }
  /// Edges recorded in round index `i` (0-based; round i+1 of the run).
  /// Entries land in round order, so the round's block is contiguous.
  [[nodiscard]] std::span<const EdgeId> roundEntries(std::size_t i) const {
    const int r = static_cast<int>(i);
    const auto lo = std::lower_bound(entryRound_.begin(), entryRound_.end(), r);
    const auto hi = std::upper_bound(lo, entryRound_.end(), r);
    return {entries_.data() + (lo - entryRound_.begin()),
            static_cast<std::size_t>(hi - lo)};
  }
  /// Per-round view of the whole history (tests and probes; a vector of
  /// spans over the CSR, not a copy of the entries).
  [[nodiscard]] std::vector<std::span<const EdgeId>> byRound() const {
    std::vector<std::span<const EdgeId>> out;
    out.reserve(roundsBegun_);
    for (std::size_t i = 0; i < roundsBegun_; ++i)
      out.push_back(roundEntries(i));
    return out;
  }

  /// Forgets all recorded history (Network::reset() support), keeping the
  /// CSR capacity.
  void clear() {
    total_ = 0;
    roundsBegun_ = 0;
    entries_.clear();
    entryRound_.clear();
  }

 private:
  long total_ = 0;
  std::size_t roundsBegun_ = 0;
  std::vector<EdgeId> entries_;
  std::vector<int> entryRound_;  // parallel to entries_; 0-based, ascending
};

/// Reusable per-round state for a TamperView.  The Network owns one and
/// lends it to every round's view; beginRound() rewinds the vectors in
/// place, so after warm-up the adversary phase allocates nothing.
struct TamperScratch {
  /// One copy-on-touch pre-image: both arcs of an edge, stored as slices
  /// of the shared `words` arena (an absent arc has present == false and
  /// len == 0).
  struct PreImage {
    EdgeId edge = -1;
    bool uvPresent = false;
    bool vuPresent = false;
    std::size_t uvOff = 0, uvLen = 0;
    std::size_t vuOff = 0, vuLen = 0;
  };

  std::vector<EdgeId> touched;       // charged edges, kept sorted ascending
  std::vector<PreImage> pre;         // touch order; TamperView sorts on demand
  std::vector<std::uint64_t> words;  // shared snapshot arena

  void beginRound() {
    touched.clear();
    pre.clear();
    words.clear();
  }
};

/// The per-round interface the Network hands the adversary.
class TamperView {
 public:
  TamperView(const Graph& g, const Spec& spec, int round,
             sim::ShardedPlane& plane, long budgetUsedSoFar,
             TamperScratch& scratch);

  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] const Graph& graph() const { return g_; }

  // --- byzantine surface -------------------------------------------------
  /// Read any arc's current message (byzantine adversaries see everything).
  /// The view is valid until the next corruptArc, whose write may grow the
  /// adversary slab: copy what you need before writing, and re-peek after.
  [[nodiscard]] sim::MsgView peek(ArcId a) const;
  /// Rewrite (or inject / drop) the message on arc `a`.  Charges the edge
  /// and snapshots its pre-image on first touch.
  void corruptArc(ArcId a, const Msg& replacement);
  /// Convenience: rewrite both directions.
  void corruptEdge(EdgeId e, const Msg& uv, const Msg& vu);

  // --- eavesdropper surface ------------------------------------------------
  /// Observe both directions of edge `e`; charges the edge.
  [[nodiscard]] ViewRecord observe(EdgeId e);

  /// Edges already charged this round, sorted ascending (membership is a
  /// std::binary_search).
  [[nodiscard]] std::span<const EdgeId> touched() const {
    return {scratch_.touched.data(), scratch_.touched.size()};
  }

  /// Remaining per-round budget.
  [[nodiscard]] int remaining() const;

  // --- copy-on-touch ledger support ---------------------------------------
  /// Pre-images of every byzantine-touched edge (both arcs as slices of
  /// snapshotArena()), sorted ascending by edge -- the Network diffs
  /// exactly these against the post-adversary plane, so the ledger costs
  /// O(touched).  Sorts the scratch in place; call after act() returns.
  [[nodiscard]] std::span<const TamperScratch::PreImage> preImages();
  /// Base of the shared snapshot arena the PreImage slices index into.
  [[nodiscard]] const std::uint64_t* snapshotArena() const {
    return scratch_.words.data();
  }
  /// Words materialized by copy-on-touch snapshots (the O(f) cost proof
  /// surface; the Network accumulates it per run).
  [[nodiscard]] std::uint64_t snapshotWordsCopied() const {
    return snapshotWords_;
  }

 private:
  /// Charges the edge against the budget; true when this is the edge's
  /// first touch this round.
  bool charge(EdgeId e);

  const Graph& g_;
  const Spec& spec_;
  int round_;
  sim::ShardedPlane& plane_;
  TamperScratch& scratch_;
  std::uint64_t snapshotWords_ = 0;
  long budgetUsedBefore_;
};

/// Strategy interface.
class Adversary {
 public:
  explicit Adversary(Spec spec) : spec_(std::move(spec)) {}
  virtual ~Adversary() = default;

  [[nodiscard]] const Spec& spec() const { return spec_; }

  /// Acts on the round's messages through the budget-enforcing view.
  virtual void act(TamperView& view) = 0;

  /// Eavesdropper accumulated view (empty for byzantine strategies).
  [[nodiscard]] const std::vector<ViewRecord>& viewLog() const {
    return viewLog_;
  }

 protected:
  void recordView(ViewRecord r) { viewLog_.push_back(std::move(r)); }

  Spec spec_;
  std::vector<ViewRecord> viewLog_;
};

}  // namespace mobile::adv
