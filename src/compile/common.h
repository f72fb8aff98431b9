// Shared infrastructure for the compilers.
//
//  * Message keys: the byzantine machinery streams messages through
//    l0/sparse-recovery sketches whose universe is 61-bit integers; a
//    CONGEST message m_i(u,v) is encoded as
//        [sender:12][receiver:12][chunk:3][payload:32]   (59 bits)
//    matching the paper's convention that a message's last bits carry
//    id(u) o id(v) (Section 3.2, KT1 assumption).
//  * PackingKnowledge: the *distributed* form of a tree packing -- each
//    node's own belief of (parent, children, depth) per tree plus the
//    per-edge slot tables used by the Lemma 3.3 scheduler.  For trusted
//    preprocessing the beliefs are globally consistent; the expander
//    protocol (Lemma 3.10) produces per-node beliefs that may disagree on
//    adversarially colored edges, which the weak-packing analysis absorbs.
//
// Storage is flat CSR (docs/architecture.md section 11): the old
// one-vector-per-(node,tree) representation cost ~10 heap blocks and
// several hundred bytes of allocator overhead per node, which at n=10^6
// dominated compile-state memory.  Nodes access their slice through the
// NodeTreeView value proxy; per-(node,tree) depths are int16_t and
// per-arc tree ids int16_t (k <= 32767, depth <= 32767 -- both orders of
// magnitude above any schedule the compilers accept).
//
// See docs/architecture.md section 7 for how these two pieces slot into
// the compiler pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/tree_packing.h"
#include "sim/message.h"

namespace mobile::compile {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// The majority decoder of every repeated hop: add() each received copy,
/// then winner() is the value received most often, ties going to the
/// value seen first.  Each *distinct* message is stored once with its
/// multiplicity instead of all copies, so fault-free schedules hold one
/// message per slot -- ~1/rho of a copy stash's footprint at scale.
/// Capacity is kept across reset(), preserving the compilers' no-steady-
/// state-allocation idiom.  tests/test_vote_slot.cc checks winner()
/// against the copy-stash majority it replaced.
class VoteSlot {
 public:
  void reset() { used_ = 0; }
  void add(const sim::MsgView& m) {
    for (std::size_t j = 0; j < used_; ++j) {
      if (m == vals_[j]) {
        ++cnt_[j];
        return;
      }
    }
    if (used_ == vals_.size()) {
      vals_.emplace_back();
      cnt_.push_back(0);
    }
    sim::assignMsg(vals_[used_], m);
    cnt_[used_] = 1;
    ++used_;
  }
  [[nodiscard]] const sim::Msg& winner() const {
    std::size_t best = 0;
    for (std::size_t j = 1; j < used_; ++j)
      if (cnt_[j] > cnt_[best]) best = j;
    return vals_[best];
  }

 private:
  std::vector<sim::Msg> vals_;        // distinct, first-occurrence order
  std::vector<std::uint16_t> cnt_;    // multiplicity per distinct value
  std::size_t used_ = 0;
};

// --- 61-bit message keys -----------------------------------------------------

inline constexpr std::uint64_t kPayloadMask = 0xffffffffULL;  // 32 bits
inline constexpr int kMaxKeyNodes = 1 << 12;                  // 12-bit ids

/// Encodes (sender, receiver, chunk, payload) into a sketch-universe key.
[[nodiscard]] inline std::uint64_t encodeKey(NodeId sender, NodeId receiver,
                                             unsigned chunk,
                                             std::uint64_t payload32) {
  return (static_cast<std::uint64_t>(sender) << 47) |
         (static_cast<std::uint64_t>(receiver) << 35) |
         (static_cast<std::uint64_t>(chunk & 0x7u) << 32) |
         (payload32 & kPayloadMask);
}

struct DecodedKey {
  NodeId sender;
  NodeId receiver;
  unsigned chunk;
  std::uint64_t payload;
};

[[nodiscard]] inline DecodedKey decodeKey(std::uint64_t key) {
  DecodedKey d;
  d.sender = static_cast<NodeId>((key >> 47) & 0xfff);
  d.receiver = static_cast<NodeId>((key >> 35) & 0xfff);
  d.chunk = static_cast<unsigned>((key >> 32) & 0x7);
  d.payload = key & kPayloadMask;
  return d;
}

// --- distributed tree-packing knowledge --------------------------------------

class NodeTreeView;

/// The network-wide bundle: per-node views plus the public schedule
/// parameters every node knows (k, eta, depth bound, root id).
///
/// Per-node beliefs live in flat arrays indexed (node * k + tree); the
/// children of every (node, tree) and the tree ids on every arc are CSR
/// lists.  Arc order matches Graph::neighbors order, so a node iterating
/// its adjacency can address its slot tables by neighbor *index* in O(1).
struct PackingKnowledge {
  NodeId root = -1;
  int k = 0;        // number of trees
  int eta = 1;      // slot count per phase (max edge load)
  int depthBound = 0;

  // Flat storage -- filled by distributePacking / freezePackingViews;
  // treat as read-only and go through view(v) for access.
  NodeId n = 0;
  std::vector<NodeId> parentFlat;        // [v*k + t]; -1 = root/none
  std::vector<std::int16_t> depthFlat;   // [v*k + t]; -1 = not reached
  std::vector<std::uint32_t> childOff;   // n*k + 1
  std::vector<NodeId> childList;
  std::vector<std::uint32_t> arcOff;     // n + 1 (Graph::neighbors order)
  std::vector<NodeId> arcNbr;            // neighbor id per arc
  std::vector<std::uint32_t> arcTreeOff; // arcOff[n] + 1
  std::vector<std::int16_t> arcTreeList; // ascending tree ids per arc

  [[nodiscard]] inline NodeTreeView view(NodeId v) const;

  /// Resident bytes of the flat arrays (the compile/preprocess gauge).
  [[nodiscard]] std::size_t memoryBytes() const {
    return parentFlat.capacity() * sizeof(NodeId) +
           depthFlat.capacity() * sizeof(std::int16_t) +
           childOff.capacity() * sizeof(std::uint32_t) +
           childList.capacity() * sizeof(NodeId) +
           arcOff.capacity() * sizeof(std::uint32_t) +
           arcNbr.capacity() * sizeof(NodeId) +
           arcTreeOff.capacity() * sizeof(std::uint32_t) +
           arcTreeList.capacity() * sizeof(std::int16_t);
  }
};

/// One node's belief about its role in every tree of a packing: a value
/// proxy over the owning PackingKnowledge's flat arrays.  Cheap to copy
/// (pointer + offsets); valid as long as the PackingKnowledge lives.
class NodeTreeView {
 public:
  NodeTreeView(const PackingKnowledge* pk, NodeId v)
      : pk_(pk),
        base_(static_cast<std::size_t>(v) * static_cast<std::size_t>(pk->k)),
        arc0_(pk->arcOff[static_cast<std::size_t>(v)]),
        arc1_(pk->arcOff[static_cast<std::size_t>(v) + 1]) {}

  [[nodiscard]] NodeId parent(int t) const {
    return pk_->parentFlat[base_ + static_cast<std::size_t>(t)];
  }
  [[nodiscard]] int depth(int t) const {
    return pk_->depthFlat[base_ + static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::span<const NodeId> children(int t) const {
    const std::size_t i = base_ + static_cast<std::size_t>(t);
    return {pk_->childList.data() + pk_->childOff[i],
            pk_->childList.data() + pk_->childOff[i + 1]};
  }
  [[nodiscard]] bool hasChild(int t, NodeId u) const {
    const auto ch = children(t);
    return std::find(ch.begin(), ch.end(), u) != ch.end();
  }

  /// Arc-indexed slot tables; `i` is the neighbor's position in
  /// Graph::neighbors(v) order.
  [[nodiscard]] int degree() const { return static_cast<int>(arc1_ - arc0_); }
  [[nodiscard]] NodeId neighborAt(int i) const {
    return pk_->arcNbr[arc0_ + static_cast<std::uint32_t>(i)];
  }
  [[nodiscard]] std::span<const std::int16_t> trees(int i) const {
    const std::size_t a = arc0_ + static_cast<std::size_t>(i);
    return {pk_->arcTreeList.data() + pk_->arcTreeOff[a],
            pk_->arcTreeList.data() + pk_->arcTreeOff[a + 1]};
  }
  /// Tree scheduled at (arc i, slot); -1 when the slot is unused.
  [[nodiscard]] int treeAt(int i, int slot) const {
    const auto ts = trees(i);
    if (slot < 0 || slot >= static_cast<int>(ts.size())) return -1;
    return ts[static_cast<std::size_t>(slot)];
  }
  /// Slot carrying `tree` on arc i; -1 if the arc is not in that tree.
  [[nodiscard]] int slotOf(int i, int tree) const {
    const auto ts = trees(i);
    const auto pos = std::find(ts.begin(), ts.end(),
                               static_cast<std::int16_t>(tree));
    return pos == ts.end() ? -1 : static_cast<int>(pos - ts.begin());
  }
  /// Neighbor-id lookup (linear scan of the adjacency; prefer the indexed
  /// accessors on hot paths).
  [[nodiscard]] int arcIndexOf(NodeId neighbor) const {
    for (std::uint32_t a = arc0_; a < arc1_; ++a)
      if (pk_->arcNbr[a] == neighbor) return static_cast<int>(a - arc0_);
    return -1;
  }

 private:
  const PackingKnowledge* pk_;
  std::size_t base_;
  std::uint32_t arc0_;
  std::uint32_t arc1_;
};

inline NodeTreeView PackingKnowledge::view(NodeId v) const {
  return NodeTreeView(this, v);
}

/// Mutable per-node belief, the staging form filled by distributed
/// packing protocols (Lemma 3.10) before freezePackingViews flattens it.
struct StagedNodeView {
  std::vector<NodeId> parent;                 // per tree; -1 = root/none
  std::vector<std::vector<NodeId>> children;  // per tree
  std::vector<int> depth;                     // per tree; -1 = not reached
};

/// Flattens staged per-node beliefs into pk's CSR arrays.  The per-arc
/// slot lists are derived from each node's *own* belief (tree t is on the
/// arc to u iff u is my parent or one of my children in t), sorted
/// ascending -- exactly the lists the old map-of-vectors construction
/// produced.  `staged` is consumed (moved from) to free the staging
/// memory before the round loop starts.
void freezePackingViews(PackingKnowledge& pk, const Graph& g,
                        std::vector<StagedNodeView>&& staged);

/// Builds consistent distributed knowledge from a (centralized) packing --
/// the trusted-preprocessing path of Theorem 1.4(ii) / Corollary 3.9.
/// Fills the same arrays as freezePackingViews would from staged views
/// holding each tree's parent/depth/children.
[[nodiscard]] std::shared_ptr<PackingKnowledge> distributePacking(
    const Graph& g, const graph::TreePacking& packing, int depthBound);

/// A compiler schedule's 64-bit round total as sim::Algorithm::rounds,
/// which counts in int.  Throws std::overflow_error past INT_MAX.
[[nodiscard]] int compiledRounds(std::int64_t total);

}  // namespace mobile::compile
