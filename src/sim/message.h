// CONGEST messages.
//
// The base model allows B = O(log n) bits per edge per round; a base message
// is one 64-bit word.  Compiled algorithms bundle logically-parallel content
// (e.g. a battery of l0-sketch cells) into wider messages; the simulator
// tracks the maximum width used so experiments can report the *normalized*
// CONGEST round count (raw rounds x ceil(maxWords / baseWords)), keeping the
// round-complexity accounting honest while the simulation stays fast.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mobile::sim {

/// Order-stable digest over message content -- THE message digest: Msg and
/// MsgView both delegate here, so owned and arena-viewed surfaces can never
/// diverge.
[[nodiscard]] inline std::uint64_t digestWords(bool present,
                                               const std::uint64_t* words,
                                               std::size_t len) {
  if (!present) return 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0x100000001b3ULL ^ len;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

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

  friend bool operator==(const Msg& a, const Msg& b) {
    if (a.present != b.present) return false;
    if (!a.present) return true;
    return a.words == b.words;
  }
  friend bool operator!=(const Msg& a, const Msg& b) { return !(a == b); }

  /// Order-stable digest for view logging / distribution tests.
  [[nodiscard]] std::uint64_t digest() const {
    return digestWords(present, words.data(), words.size());
  }
};

/// Clears `m` to an empty *present* message, keeping the words capacity:
/// the scratch-send counterpart of sim::assignMsg (arc_buffer.h).  Nodes
/// that resend every round keep one member Msg and refill it --
///   out.to(nb, resetScratch(scratch_).push(w));
/// -- so the steady state allocates nothing.
inline Msg& resetScratch(Msg& m) {
  m.present = true;
  m.words.clear();
  return m;
}

}  // namespace mobile::sim
