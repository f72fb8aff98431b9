// The arena-backed message plane.
//
// The round engine's hot loop used to own one heap-allocated
// std::vector<std::uint64_t> per arc, so every round paid O(arcs) frees to
// clear, O(messages) allocations to send, and a full deep copy to diff
// against the adversary.  ArcBuffer replaces that with flat storage:
//
//   * one words slab per *sender* (plus one for the adversary), appended to
//     by that sender only -- parallel sends never contend and never observe
//     each other, so arena content is bit-identical at any thread count;
//   * per-arc headers (slab id, offset, length) stamped with the buffer
//     epoch -- a message is present iff its stamp matches, so clearing the
//     whole plane is one epoch bump plus rewinding each slab cursor; no
//     memory is freed between rounds, and after warm-up no memory is
//     allocated either;
//   * MsgView, a lightweight read surface with the Msg API (present / size /
//     at / atOr / digest).  Arena-backed views resolve the header on every
//     access, so a view taken before a slab grows still reads the right
//     words afterwards (slabs may reallocate while their sender keeps
//     appending in the same round).
//
// Writers go through ArcOutbox (sender slab = sender id) or the adversary's
// TamperView (the dedicated adversary slab); readers through ArcInbox /
// MsgView.  docs/architecture.md section 2 spells out the contracts.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/message.h"

namespace mobile::sim {

class MsgView;

class ArcBuffer {
 public:
  ArcBuffer() = default;
  explicit ArcBuffer(const graph::Graph& g) { attach(g); }

  /// (Re)shapes the buffer for `g`: one header per arc, one slab per node
  /// plus the adversary slab.  Existing slab capacity is retained when the
  /// shape already matches.
  void attach(const graph::Graph& g) {
    attach(static_cast<std::size_t>(g.arcCount()),
           static_cast<std::size_t>(g.nodeCount()) + 1);
  }

  /// Shape-agnostic attach for sharded planes: the caller owns the mapping
  /// from global arc/sender ids to this buffer's local [0, arcCount) arcs
  /// and [0, slabCount) slabs (ShardedPlane maps a contiguous node range;
  /// its last slab is that shard's adversary slab).
  void attach(std::size_t arcCount, std::size_t slabCount) {
    headers_.assign(arcCount, Header{});
    if (slabs_.size() != slabCount) slabs_.resize(slabCount);
    epoch_ = 1;
    for (auto& s : slabs_) s.clear();
  }

  /// Slab id the adversary writes through (senders use their own node id).
  [[nodiscard]] std::uint32_t adversarySlab() const {
    return static_cast<std::uint32_t>(slabs_.size() - 1);
  }

  /// O(slabs) round reset: invalidates every header via the epoch stamp and
  /// rewinds the slab cursors without releasing their capacity.
  void beginRound() {
    ++epoch_;
    for (auto& s : slabs_) s.clear();
  }

  /// Full reset (trial rewind): like beginRound(); capacity is kept so the
  /// next trial runs allocation-free from round one.
  void reset() { beginRound(); }

  // --- writer surface (one writer per slab at a time) ----------------------

  /// Stores `len` words as arc `a`'s message, appending into `slab`.
  void put(std::uint32_t slab, graph::ArcId a, const std::uint64_t* words,
           std::size_t len) {
    auto& s = slabs_[static_cast<std::size_t>(slab)];
    const std::size_t offset = s.size();
    s.insert(s.end(), words, words + len);
    wordsAppended_.fetch_add(len, std::memory_order_relaxed);
    Header& h = headers_[static_cast<std::size_t>(a)];
    h.epoch = epoch_;
    h.slab = slab;
    h.offset = static_cast<std::uint32_t>(offset);
    h.len = static_cast<std::uint32_t>(len);
  }

  /// Msg-typed put: absent messages erase the slot (an Outbox overwrite
  /// with an absent Msg must leave no message, matching the old plane).
  void putMsg(std::uint32_t slab, graph::ArcId a, const Msg& m) {
    if (!m.present) {
      erase(a);
      return;
    }
    put(slab, a, m.words.data(), m.words.size());
  }

  /// Marks arc `a` message-free this round.
  void erase(graph::ArcId a) { headers_[static_cast<std::size_t>(a)].epoch = 0; }

  // --- reader surface -------------------------------------------------------

  [[nodiscard]] bool present(graph::ArcId a) const {
    return headers_[static_cast<std::size_t>(a)].epoch == epoch_;
  }
  [[nodiscard]] std::size_t size(graph::ArcId a) const {
    const Header& h = headers_[static_cast<std::size_t>(a)];
    return h.epoch == epoch_ ? h.len : 0u;
  }
  /// Pointer to the message words (nullptr when absent or empty).  Valid
  /// until the owning slab is next written; prefer MsgView, which
  /// re-resolves and therefore survives slab growth.
  [[nodiscard]] const std::uint64_t* data(graph::ArcId a) const {
    const Header& h = headers_[static_cast<std::size_t>(a)];
    if (h.epoch != epoch_ || h.len == 0) return nullptr;
    return slabs_[static_cast<std::size_t>(h.slab)].data() + h.offset;
  }

  [[nodiscard]] MsgView view(graph::ArcId a) const;

  /// Materializes arc `a` as an owning Msg (the copy-on-touch snapshot and
  /// eavesdropper-observation path).
  [[nodiscard]] Msg msg(graph::ArcId a) const {
    Msg m;
    const Header& h = headers_[static_cast<std::size_t>(a)];
    if (h.epoch != epoch_) return m;
    m.present = true;
    const std::uint64_t* w =
        slabs_[static_cast<std::size_t>(h.slab)].data() + h.offset;
    m.words.assign(w, w + h.len);
    return m;
  }

  // --- introspection --------------------------------------------------------

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Cumulative words appended over the buffer's lifetime (monotonic; the
  /// zero-allocation tests use deltas).  Relaxed atomic: senders append
  /// concurrently during the parallel send phase.
  [[nodiscard]] std::uint64_t wordsAppended() const {
    return wordsAppended_.load(std::memory_order_relaxed);
  }
  /// Current total slab capacity in words -- flat once the engine warms up.
  [[nodiscard]] std::size_t capacityWords() const {
    std::size_t c = 0;
    for (const auto& s : slabs_) c += s.capacity();
    return c;
  }

 private:
  struct Header {
    std::uint64_t epoch = 0;  // present iff == ArcBuffer::epoch_
    std::uint32_t slab = 0;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  std::vector<Header> headers_;
  std::vector<std::vector<std::uint64_t>> slabs_;
  std::uint64_t epoch_ = 1;
  std::atomic<std::uint64_t> wordsAppended_{0};
};

/// Read-only message handle with the Msg API.  Two backings:
///   * arena: (buffer, arc) resolved on every access -- stable across slab
///     growth within the round; never dereference after the next
///     beginRound() (the words are gone by then);
///   * owned Msg: wraps a Msg that outlives the view (NeighborSlots, tests).
class MsgView {
 public:
  /// Absent message.
  MsgView() = default;
  /// View of an owning Msg (must outlive the view).
  explicit MsgView(const Msg& m) : msg_(&m) {}
  /// Arena-backed view of arc `a`.
  MsgView(const ArcBuffer& buf, graph::ArcId a) : buf_(&buf), arc_(a) {}

  [[nodiscard]] bool present() const {
    if (buf_ != nullptr) return buf_->present(arc_);
    return msg_ != nullptr && msg_->present;
  }
  [[nodiscard]] std::size_t size() const {
    if (buf_ != nullptr) return buf_->size(arc_);
    return msg_ != nullptr && msg_->present ? msg_->words.size() : 0u;
  }
  /// Contiguous words (nullptr when absent or empty); for arena views the
  /// pointer is transient -- re-taken from the view after any write.
  [[nodiscard]] const std::uint64_t* data() const {
    if (buf_ != nullptr) return buf_->data(arc_);
    if (msg_ == nullptr || !msg_->present || msg_->words.empty())
      return nullptr;
    return msg_->words.data();
  }

  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    assert(i < size());
    return data()[i];
  }
  [[nodiscard]] std::uint64_t atOr(std::size_t i, std::uint64_t dflt) const {
    return i < size() ? data()[i] : dflt;
  }

  /// Bit-identical to Msg::digest(): both delegate to sim::digestWords.
  [[nodiscard]] std::uint64_t digest() const {
    return digestWords(present(), data(), size());
  }

  friend bool operator==(const MsgView& a, const MsgView& b) {
    if (a.present() != b.present()) return false;
    if (!a.present()) return true;
    if (a.size() != b.size()) return false;
    const std::uint64_t* wa = a.data();
    const std::uint64_t* wb = b.data();
    for (std::size_t i = 0; i < a.size(); ++i)
      if (wa[i] != wb[i]) return false;
    return true;
  }
  friend bool operator!=(const MsgView& a, const MsgView& b) {
    return !(a == b);
  }

 private:
  const ArcBuffer* buf_ = nullptr;
  graph::ArcId arc_ = 0;
  const Msg* msg_ = nullptr;
};

inline MsgView ArcBuffer::view(graph::ArcId a) const {
  return MsgView(*this, a);
}

/// Copies a view into an owning Msg in place, reusing the destination's
/// words capacity -- the allocation-free stash idiom for compilers that
/// buffer inbox messages across rounds.
inline void assignMsg(Msg& dst, const MsgView& src) {
  if (!src.present()) {
    dst.present = false;
    dst.words.clear();
    return;
  }
  dst.present = true;
  const std::uint64_t* w = src.data();
  dst.words.assign(w, w + src.size());
}

/// Content equality between a view and an owning Msg (the ledger diff).
[[nodiscard]] inline bool sameContent(const MsgView& v, const Msg& m) {
  if (v.present() != m.present) return false;
  if (!m.present) return true;
  if (v.size() != m.words.size()) return false;
  const std::uint64_t* w = v.data();
  for (std::size_t i = 0; i < m.words.size(); ++i)
    if (w[i] != m.words[i]) return false;
  return true;
}

/// Content equality between a view and a raw (present, words, len) slice --
/// the arena-backed form of sameContent used by the copy-on-touch ledger
/// diff against TamperScratch snapshots.
[[nodiscard]] inline bool sameContent(const MsgView& v, bool present,
                                      const std::uint64_t* words,
                                      std::size_t len) {
  if (v.present() != present) return false;
  if (!present) return true;
  if (v.size() != len) return false;
  const std::uint64_t* w = v.data();
  for (std::size_t i = 0; i < len; ++i)
    if (w[i] != words[i]) return false;
  return true;
}

}  // namespace mobile::sim
