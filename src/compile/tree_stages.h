// The scheduled tree stages shared by the byzantine tree compiler, the
// rewind compiler and the Lemma 3.3 scheduled broadcast; see
// docs/architecture.md section 7.1 for the wave directions, the arc vote
// stash, shares per hop and which compiler uses which stage.
//
// Each stage offers a send step, which returns the message for one
// (tree, neighbor) hop or nullptr; expects(view, tree, from, step), whether
// a hop on that arc could change the stage at that step; and a receive
// step, which consumes one decoded hop.  Each receive is built on its own
// expects, and ArcVotes decodes only the arcs expects accepts.  Wave steps
// are 1-based and local to the stage.  Sends build into one thread-local
// buffer (hopScratch), valid until the next stage send on the same thread;
// the arc loop hands it to the outbox at once, so engine lanes never share
// it.  The flood and share stages rebuild every repetition of a hop, which
// costs a few words.  The sketch up-wave builds each hop once per step
// instead and holds it for the other repetitions (SketchConvergecast::send).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "compile/common.h"
#include "compile/ecc_broadcast.h"
#include "compile/rs_engine.h"
#include "sim/node.h"
#include "sketch/l0sampler.h"
#include "sketch/sparse_recovery.h"
#include "util/rng.h"

namespace mobile::compile {

/// Stream elements (key, frequency) fed into a node's sketches.
using StreamEntries = std::vector<std::pair<std::uint64_t, std::int64_t>>;

/// How a node reads a belief that lists its parent among its children in
/// some tree -- a contradiction only weak packings built under attack
/// produce.  The byzantine compiler takes the child list as given; rewind
/// and the scheduled broadcast leave the parent out of it.
enum class ChildRule { AsListed, ParentExcluded };

[[nodiscard]] inline bool isChild(const NodeTreeView& view, int tree,
                                  NodeId u, ChildRule rule) {
  return view.hasChild(tree, u) &&
         (rule == ChildRule::AsListed || view.parent(tree) != u);
}

/// The calling thread's send buffer shared by every stage (see above).
[[nodiscard]] inline sim::Msg& hopScratch() {
  static thread_local sim::Msg m;
  return m;
}

/// The first key of `votes` (key -> count) with the most votes; `votes`
/// must not be empty.
template <class Key>
[[nodiscard]] const Key& mostVoted(const std::map<Key, int>& votes) {
  return std::max_element(
             votes.begin(), votes.end(),
             [](const auto& a, const auto& b) { return a.second < b.second; })
      ->first;
}

/// Sends msgFor(tree, neighbor) on every arc whose `slot` carries a tree,
/// skipping hops for which it returns nullptr.
template <class MsgFor>
void sendScheduled(const NodeTreeView& view, int slot, sim::Outbox& out,
                   MsgFor&& msgFor) {
  for (int i = 0; i < view.degree(); ++i) {
    const int tree = view.treeAt(i, slot);
    if (tree < 0) continue;
    const NodeId to = view.neighborAt(i);
    if (const sim::Msg* m = msgFor(tree, to)) out.to(to, *m);
  }
}

/// The hop-repetition decoder: one VoteSlot per (arc, schedule slot),
/// rewritten in place every scheduled round.
class ArcVotes {
 public:
  ArcVotes(int degree, SlotSchedule slots)
      : slots_(slots),
        votes_(static_cast<std::size_t>(degree) *
               static_cast<std::size_t>(slots.eta)) {}

  /// Decodes the hops `stage` consumes at its wave step `step`: adds this
  /// repetition's copy on every scheduled arc that
  /// stage.expects(view, tree, neighbor, step) accepts, and at the last
  /// repetition calls stage.receive(view, tree, neighbor, step, majority)
  /// for each present majority.  Other arcs are never read.  expects()
  /// depends on the step, not the repetition, so an accepted arc's slot
  /// is reset at repetition 0 and never carries a vote across steps.
  template <class Stage>
  void receive(const NodeTreeView& view, SlotPos pos, const sim::Inbox& in,
               Stage& stage, int step) {
    for (int i = 0; i < view.degree(); ++i) {
      const int tree = view.treeAt(i, pos.slot);
      if (tree < 0) continue;
      const NodeId from = view.neighborAt(i);
      if (!stage.expects(view, tree, from, step)) continue;
      VoteSlot& vs = votes_[static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(slots_.eta) +
                            static_cast<std::size_t>(pos.slot)];
      if (pos.rep == 0) vs.reset();
      vs.add(in.from(from));
      if (pos.rep != slots_.rho - 1) continue;
      const sim::Msg& m = vs.winner();
      if (m.present) stage.receive(view, tree, from, step, m);
    }
  }

 private:
  SlotSchedule slots_;
  std::vector<VoteSlot> votes_;  // [arc][schedule slot]
};

/// Down-flood of `width` words per tree from the root.
class TreeFlood {
 public:
  explicit TreeFlood(ChildRule rule, int width = 1)
      : rule_(rule), width_(width) {}

  /// Clears every tree (value 0, not held).
  void start(int k) {
    words_.assign(static_cast<std::size_t>(k * width_), 0);
    have_.assign(static_cast<std::size_t>(k), 0);
  }
  /// Root side: holds `words` for `tree` (exactly `width` of them).
  void seed(int tree, std::initializer_list<std::uint64_t> words) {
    assert(static_cast<int>(words.size()) == width_);
    std::copy(words.begin(), words.end(),
              words_.begin() + static_cast<std::ptrdiff_t>(tree * width_));
    have_[static_cast<std::size_t>(tree)] = 1;
  }

  [[nodiscard]] const sim::Msg* send(const NodeTreeView& view, int tree,
                                     NodeId to, int step) const {
    if (view.depth(tree) != step - 1 || !has(tree) ||
        !isChild(view, tree, to, rule_))
      return nullptr;
    sim::Msg& m = sim::resetScratch(hopScratch());
    for (int w = 0; w < width_; ++w) m.push(word(tree, w));
    return &m;
  }
  /// Whether a hop of `tree` from `from` carries the flood at `step`.
  [[nodiscard]] bool expects(const NodeTreeView& view, int tree, NodeId from,
                             int step) const {
    return view.depth(tree) == step && view.parent(tree) == from;
  }
  void receive(const NodeTreeView& view, int tree, NodeId from, int step,
               const sim::Msg& m) {
    if (!expects(view, tree, from, step) ||
        m.size() < static_cast<std::size_t>(width_))
      return;
    std::copy_n(m.words.begin(), width_,
                words_.begin() + static_cast<std::ptrdiff_t>(tree * width_));
    have_[static_cast<std::size_t>(tree)] = 1;
  }

  [[nodiscard]] bool has(int tree) const {
    return have_[static_cast<std::size_t>(tree)] != 0;
  }
  /// Word `w` of `tree` (0 until the flood delivered it).
  [[nodiscard]] std::uint64_t word(int tree, int w = 0) const {
    return words_[static_cast<std::size_t>(tree * width_ + w)];
  }
  /// All trees' words, [tree][width] flattened.
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return words_;
  }

 private:
  ChildRule rule_;
  int width_;
  std::vector<std::uint64_t> words_;
  std::vector<char> have_;
};

/// MismatchCorrection's up-wave: sketches of the node's stream entries,
/// merged up every tree.  `Sketch` is sketch::SparseRecovery or
/// sketch::L0Bundle; both offer Shape, reseed, update, merge and the wire
/// form.  The stage keeps the sum of the children's hops per tree in wire
/// form, and the hops it sent in the current step; the node's own sketch
/// lives in one thread-local scratch per sketch type, rebuilt when the
/// shape changes and reseeded otherwise.  docs/architecture.md section 7.1
/// gives the lifetimes.
template <class Sketch>
class SketchConvergecast {
 public:
  using Shape = typename Sketch::Shape;

  SketchConvergecast(Shape shape, int depthBound, ChildRule rule)
      : shape_(shape), depthBound_(depthBound), rule_(rule) {}

  /// Drops the children's sums and the sent hops.
  void start() {
    accum_.clear();
    sent_.clear();
    sentStep_ = 0;
  }

  /// Writes into `m` the node's sketch of `entries` (seeded `seed`) merged
  /// with its children's: the hop message up `tree`.
  void build(int tree, std::uint64_t seed, const StreamEntries& entries,
             sim::Msg& m) const;
  /// The hop message up `tree`, or nullptr if none is due: depth d >= 1
  /// sends to its parent at up-wave step depthBound + 1 - d.  The hop is
  /// built at the step's first send and held for the hop's other
  /// repetitions, until a child hop merges into `tree` or the step changes.
  /// A step change also drops the children's sum of every tree whose send
  /// step has passed; the root keeps all of them for merged().
  [[nodiscard]] const sim::Msg* send(const NodeTreeView& view, int tree,
                                     NodeId to, int step, std::uint64_t seed,
                                     const StreamEntries& entries);
  /// Whether a hop of `tree` from `from` is a child's.  Deliberately
  /// step-free: a child's hop merges at any up-wave step.
  [[nodiscard]] bool expects(const NodeTreeView& view, int tree, NodeId from,
                             int /*step*/) const {
    return view.depth(tree) >= 0 && isChild(view, tree, from, rule_);
  }
  /// Merges a child's hop for `tree`, at any up-wave step.  Returns false,
  /// merging nothing, for a hop expects() rejects or of the wrong size.
  bool receive(const NodeTreeView& view, int tree, NodeId from, int step,
               const sim::Msg& m);

  /// The root's readout: the node's sketch of `entries` merged with its
  /// children's for `tree`, the whole tree's.  Valid until the next stage
  /// call on this thread.
  [[nodiscard]] const Sketch& merged(int tree, std::uint64_t seed,
                                     const StreamEntries& entries) const;
  /// Sketch words the stage holds: children's sums and sent hops.
  [[nodiscard]] std::size_t heldWords() const;

 private:
  [[nodiscard]] Sketch& scratch(std::uint64_t seed) const;

  Shape shape_;
  int depthBound_;
  ChildRule rule_;
  int sentStep_ = 0;
  std::map<int, std::vector<std::uint64_t>> accum_;  // children's sum per tree
  std::map<int, sim::Msg> sent_;  // hops built in step sentStep_, per tree
};

// Instantiated in tree_stages.cc for the two sketch types.
extern template class SketchConvergecast<sketch::SparseRecovery>;
extern template class SketchConvergecast<sketch::L0Bundle>;

/// How ShareDowncast bundles a tree's shares into hop messages.
enum class ShareBundle {
  OnePerHop,  // one share per hop, one down-wave per chunk (byz_tree)
  AllChunks,  // every chunk's share in one hop, one down-wave (rewind)
};

/// ECCSafeBroadcast of the root's DM keys: chunk c's share for tree t
/// travels down t.  The stage spans one down-wave of depthBound + 1 steps
/// per hop message a tree's shares fill (see ShareBundle).
class ShareDowncast {
 public:
  ShareDowncast(int k, int dmCap, ShareBundle bundle, int depthBound,
                ChildRule rule)
      : k_(k),
        codec_(k, dmCap),
        perHop_(bundle == ShareBundle::AllChunks ? codec_.chunks() : 1),
        depthBound_(depthBound),
        rule_(rule) {}

  /// Zeroes the received-share table and drops the root's DM; held
  /// shares survive.
  void start();
  /// Drops every held share.  Until then a node that misses a hop keeps
  /// forwarding the shares it last held.
  void forget() { std::fill(held_.begin(), held_.end(), -1); }
  /// Root side: truncates `dm` to the codec cap and holds its shares.
  void encode(std::vector<std::uint64_t> dm);
  /// Shares [chunk][tree]: encoded at the root, received elsewhere.
  [[nodiscard]] std::vector<std::vector<gf::F16>>& shares() {
    return shares_;
  }
  /// The DM keys: the root's own list, else the decoded shares (empty on a
  /// decode failure).
  [[nodiscard]] std::vector<std::uint64_t> keys(bool isRoot) const {
    return isRoot ? dm_ : codec_.decode(shares_);
  }

  [[nodiscard]] const sim::Msg* send(const NodeTreeView& view, int tree,
                                     NodeId to, int step) const;
  /// Whether a hop of `tree` from `from` carries shares at `step`: the
  /// node sits one below the current down-wave's front, under `from`.
  [[nodiscard]] bool expects(const NodeTreeView& view, int tree, NodeId from,
                             int step) const {
    const int wave = (step - 1) / (depthBound_ + 1);
    return view.depth(tree) == step - wave * (depthBound_ + 1) &&
           view.parent(tree) == from;
  }
  void receive(const NodeTreeView& view, int tree, NodeId from, int step,
               const sim::Msg& m);

 private:
  [[nodiscard]] std::size_t at(int chunk, int tree) const {
    return static_cast<std::size_t>(chunk) * static_cast<std::size_t>(k_) +
           static_cast<std::size_t>(tree);
  }

  int k_;
  DmCodec codec_;
  int perHop_;
  int depthBound_;
  ChildRule rule_;
  std::vector<std::uint64_t> dm_;             // root: the DM keys
  std::vector<std::vector<gf::F16>> shares_;  // [chunk][tree] to decode
  std::vector<std::int32_t> held_;  // [chunk][tree] forwarded symbol; -1 none
};

/// Steps of a MismatchCorrection block's sketch block: the seed flood's
/// depthBound, then the up-wave's depthBound + 1.
[[nodiscard]] constexpr int correctionSketchSteps(int depthBound) {
  return 2 * depthBound + 1;
}

/// Steps of one MismatchCorrection block, in 64 bits: the sketch block,
/// then one down-wave of depthBound + 1 steps per hop message of a tree's
/// shares (chunks / sharesPerHop of them).
[[nodiscard]] inline std::int64_t correctionSteps(int k, int depthBound,
                                                  int dmCap,
                                                  ShareBundle bundle) {
  const std::int64_t waves =
      bundle == ShareBundle::AllChunks ? 1 : DmCodec::chunksFor(k, dmCap);
  return correctionSketchSteps(depthBound) + waves * (depthBound + 1);
}

/// The mismatch correction of Theorem 3.5's iterations and of rewind's
/// d-message correction (Lemma 4.2), Hitron-Parter's sketch-and-broadcast:
/// the root's sketch seeds flood down every tree, the sketches of every
/// node's stream entries merge up, the root extracts the dominating
/// mismatches (DM) and ECC-broadcasts them down all k trees (Lemma 3.6),
/// and every node patches the estimates the DM keys name.  Rounds are
/// 0-based within the block: the sketch block, then the ECC block, over
/// slots.blockRounds(correctionSteps(...)) rounds in all.
template <class Sketch>
class MismatchCorrection {
 public:
  MismatchCorrection(const PackingKnowledge& pk, SlotSchedule slots,
                     typename Sketch::Shape shape, int dmCap,
                     ShareBundle bundle, ChildRule rule)
      : k_(pk.k),
        depthBound_(pk.depthBound),
        slots_(slots),
        sketchRounds_(slots.blockRounds(correctionSketchSteps(depthBound_))),
        blockRounds_(slots.blockRounds(static_cast<int>(
            correctionSteps(k_, depthBound_, dmCap, bundle)))),
        seeds_(rule),
        up_(shape, depthBound_, rule),
        down_(k_, dmCap, bundle, depthBound_, rule) {}

  /// Starts a block: clears the stages and the stream entries, and at the
  /// root draws every tree's sketch seed from `rng`, tree 0 first.  The
  /// caller refills entries() before the block's first send.
  void start(bool isRoot, util::Rng& rng) {
    seeds_.start(k_);
    up_.start();
    down_.start();
    entries_.clear();
    if (isRoot)
      for (int t = 0; t < k_; ++t) seeds_.seed(t, {rng.next()});
  }
  /// Drops the held ECC shares (ShareDowncast::forget).
  void forget() { down_.forget(); }
  [[nodiscard]] StreamEntries& entries() { return entries_; }
  [[nodiscard]] int k() const { return k_; }
  /// The root's readout of `tree`'s merged sketch (SketchConvergecast::
  /// merged): valid until the next stage call on this thread.
  [[nodiscard]] const Sketch& merged(int tree) const {
    return up_.merged(tree, seeds_.word(tree), entries_);
  }

  /// Sends block round `r`.  At the root, the first ECC round first hands
  /// the DM keys recoverDm(*this) to the share downcast.
  template <class RecoverDm>
  void send(const NodeTreeView& view, int r, bool isRoot, sim::Outbox& out,
            RecoverDm&& recoverDm) {
    const bool ecc = r >= sketchRounds_;
    const SlotPos h = slots_.at(ecc ? r - sketchRounds_ : r);
    if (isRoot && r == sketchRounds_) down_.encode(recoverDm(*this));
    sendScheduled(view, h.slot, out,
                  [&](int tree, NodeId to) -> const sim::Msg* {
                    if (ecc) return down_.send(view, tree, to, h.step);
                    if (h.step <= depthBound_)
                      return seeds_.send(view, tree, to, h.step);
                    return up_.send(view, tree, to, h.step - depthBound_,
                                    seeds_.word(tree), entries_);
                  });
  }

  /// Receives block round `r` through `votes`.  At the block's last round
  /// calls patch(arcIndex, key) for every DM key a neighbor sent to `self`
  /// and returns true.
  template <class Patch>
  bool receive(const NodeTreeView& view, int r, const sim::Inbox& in,
               ArcVotes& votes, NodeId self, bool isRoot, Patch&& patch) {
    const SlotPos h = slots_.at(r < sketchRounds_ ? r : r - sketchRounds_);
    if (r >= sketchRounds_)
      votes.receive(view, h, in, down_, h.step);
    else if (h.step <= depthBound_)
      votes.receive(view, h, in, seeds_, h.step);
    else
      votes.receive(view, h, in, up_, h.step - depthBound_);
    if (r != blockRounds_ - 1) return false;
    for (const std::uint64_t key : down_.keys(isRoot)) {
      const DecodedKey dec = decodeKey(key);
      const int idx = dec.receiver == self ? view.arcIndexOf(dec.sender) : -1;
      if (idx >= 0) patch(idx, dec);
    }
    return true;
  }

 private:
  int k_;
  int depthBound_;
  SlotSchedule slots_;
  int sketchRounds_;
  int blockRounds_;
  StreamEntries entries_;
  TreeFlood seeds_;  // sketch seed R(T) per tree
  SketchConvergecast<Sketch> up_;
  ShareDowncast down_;
};

/// Root: per tree, the positive support recovered from the merged sparse
/// sketch; returns the majority support across trees (sorted; empty when
/// the winning trees failed to recover).
[[nodiscard]] std::vector<std::uint64_t> recoverMajority(
    const MismatchCorrection<sketch::SparseRecovery>& mc);

/// Rewind's consensus up-wave (Rewind-If-Error): per tree, the minimum
/// GoodState and the maximum transcript length over the node's subtree,
/// one (good, len) pair per hop.  Depth d >= 1 sends to its parent at
/// step depthBound + 1 - d, and a child's hop merges only at that step.
class ConsensusUpcast {
 public:
  using Vote = std::pair<std::uint64_t, std::uint64_t>;  // (good, len)

  ConsensusUpcast(int depthBound, ChildRule rule)
      : depthBound_(depthBound), rule_(rule) {}

  /// Drops the children's votes.
  void start() { children_.clear(); }

  [[nodiscard]] bool sends(const NodeTreeView& view, int tree, NodeId to,
                           int step) const {
    const int d = view.depth(tree);
    return d > 0 && step == depthBound_ + 1 - d && to == view.parent(tree);
  }
  /// Whether a hop of `tree` from `from` is a child's vote due at `step`.
  [[nodiscard]] bool expects(const NodeTreeView& view, int tree, NodeId from,
                             int step) const {
    return view.depth(tree) == depthBound_ - step &&
           isChild(view, tree, from, rule_);
  }
  void receive(const NodeTreeView& view, int tree, NodeId from, int step,
               const sim::Msg& m) {
    if (!expects(view, tree, from, step) || m.size() < 2) return;
    const Vote vote{m.at(0), m.at(1)};
    const auto [child, fresh] = children_.try_emplace(tree, vote);
    if (!fresh) child->second = merge(child->second, vote);
  }

  /// `own` merged with the children's votes for `tree`.
  [[nodiscard]] Vote subtree(int tree, Vote own) const {
    const auto child = children_.find(tree);
    return child == children_.end() ? own : merge(own, child->second);
  }

 private:
  [[nodiscard]] static Vote merge(Vote a, Vote b) {
    return {std::min(a.first, b.first), std::max(a.second, b.second)};
  }

  int depthBound_;
  ChildRule rule_;
  std::map<int, Vote> children_;  // children's merged vote per tree
};

}  // namespace mobile::compile
