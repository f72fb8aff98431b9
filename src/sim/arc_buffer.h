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
//   * ArcBuffer::view(a) resolves arc a's header once and hands out a
//     MsgView (sim/message.h) over the slab words.  Like every view it
//     stays valid only until its storage is next written: here, until the
//     owning slab's next append (a sender may keep appending in the same
//     round, reallocating its slab) or the end of the round.  Only the
//     adversary phase (and a net plane's exchange) reads and writes the
//     plane in one phase, and both copy what they read before they write:
//     re-take a view after writing the plane.
//
// Writers go through ArcOutbox (sender slab = sender id) or the adversary's
// TamperView (the dedicated adversary slab); readers through ArcInbox /
// MsgView.  docs/architecture.md section 2 spells out the contracts.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/message.h"

namespace mobile::sim {

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

  /// Header-only reads for the engine's per-arc traffic accounting.
  [[nodiscard]] bool present(graph::ArcId a) const {
    return headers_[static_cast<std::size_t>(a)].epoch == epoch_;
  }
  [[nodiscard]] std::size_t size(graph::ArcId a) const {
    const Header& h = headers_[static_cast<std::size_t>(a)];
    return h.epoch == epoch_ ? h.len : 0u;
  }
  /// Arc `a`'s message (absent unless written this round); valid until the
  /// owning slab is next written.
  [[nodiscard]] MsgView view(graph::ArcId a) const {
    const Header& h = headers_[static_cast<std::size_t>(a)];
    if (h.epoch != epoch_) return {};
    return {true,
            {slabs_[static_cast<std::size_t>(h.slab)].data() + h.offset,
             h.len}};
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

}  // namespace mobile::sim
