// CONGEST messages.
//
// The base model allows B = O(log n) bits per edge per round; a base message
// is one 64-bit word.  Compiled algorithms bundle logically-parallel content
// (e.g. a battery of l0-sketch cells) into wider messages; the simulator
// tracks the maximum width used so experiments can report the *normalized*
// CONGEST round count (raw rounds x ceil(maxWords / baseWords)), keeping the
// round-complexity accounting honest while the simulation stays fast.
//
// Msg is the owning form nodes write; MsgView is the one read form every
// party reads a round's messages through, whether the words sit in an
// owning Msg or in the arena plane (sim/arc_buffer.h).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mobile::sim {

struct Msg {
  std::vector<std::uint64_t> words;
  bool present = false;

  Msg() = default;

  static Msg of(std::uint64_t w) {
    Msg m;
    m.present = true;
    m.words.push_back(w);
    return m;
  }

  Msg& push(std::uint64_t w) {
    present = true;
    words.push_back(w);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return words.size(); }

  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    assert(i < words.size());
    return words[i];
  }

  [[nodiscard]] std::uint64_t atOr(std::size_t i, std::uint64_t dflt) const {
    return i < words.size() ? words[i] : dflt;
  }

  friend bool operator==(const Msg& a, const Msg& b);

  /// Order-stable digest for view logging / distribution tests; the same
  /// value as MsgView(*this).digest().
  [[nodiscard]] std::uint64_t digest() const;
};

/// Read-only message handle with the Msg API: a presence flag plus the
/// message words.  Every reader of a round's messages -- receivers, the
/// byzantine adversary, eavesdroppers and the corruption ledger -- goes
/// through this one type, whichever storage the words live in.
///
/// A view is a plain value that borrows its words, so it stays valid only
/// until that storage is next written: an arena view until the owning
/// slab's next append (or the end of the round), a Msg view until the Msg
/// changes.  Re-take a view after writing the plane.
class MsgView {
 public:
  /// Absent message.
  MsgView() = default;
  /// `words` is ignored when `present` is false.
  MsgView(bool present, std::span<const std::uint64_t> words)
      : words_(present ? words : std::span<const std::uint64_t>{}),
        present_(present) {}
  /// View of an owning Msg (implicit: a Msg reads like any other message).
  MsgView(const Msg& m) : MsgView(m.present, m.words) {}

  [[nodiscard]] bool present() const { return present_; }
  [[nodiscard]] std::size_t size() const { return words_.size(); }
  /// The message words (empty when absent).
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    assert(i < words_.size());
    return words_[i];
  }
  [[nodiscard]] std::uint64_t atOr(std::size_t i, std::uint64_t dflt) const {
    return i < words_.size() ? words_[i] : dflt;
  }

  /// Order-stable digest over message content -- THE message digest.
  [[nodiscard]] std::uint64_t digest() const {
    if (!present_) return 0x9e3779b97f4a7c15ULL;
    std::uint64_t h = 0x100000001b3ULL ^ words_.size();
    for (const std::uint64_t w : words_) {
      h ^= w;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// Content equality: both absent, or both present with equal words.
  friend bool operator==(const MsgView& a, const MsgView& b) {
    return a.present_ == b.present_ &&
           std::equal(a.words_.begin(), a.words_.end(), b.words_.begin(),
                      b.words_.end());
  }

 private:
  std::span<const std::uint64_t> words_;
  bool present_ = false;
};

inline bool operator==(const Msg& a, const Msg& b) {
  return MsgView(a) == MsgView(b);
}

inline std::uint64_t Msg::digest() const { return MsgView(*this).digest(); }

/// Copies a view into an owning Msg in place, reusing the destination's
/// words capacity -- the allocation-free stash idiom for compilers that
/// buffer inbox messages across rounds.
inline void assignMsg(Msg& dst, const MsgView& src) {
  dst.present = src.present();
  dst.words.assign(src.words().begin(), src.words().end());
}

/// Clears `m` to an empty *present* message, keeping the words capacity:
/// the scratch-send counterpart of sim::assignMsg.  Nodes that resend
/// every round keep one member Msg and refill it --
///   out.to(nb, resetScratch(scratch_).push(w));
/// -- so the steady state allocates nothing.
inline Msg& resetScratch(Msg& m) {
  m.present = true;
  m.words.clear();
  return m;
}

}  // namespace mobile::sim
