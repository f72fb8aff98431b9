// Codec for the safe broadcast procedure ECCSafeBroadcast (Lemma 3.6).
//
// The root holds a list of dominating-mismatch keys DM (61-bit values).  It
// serializes them into 16-bit symbols, splits the symbol stream into fixed
// `chunks` of `lmax` symbols, Reed-Solomon-encodes each chunk to block
// length k, and hands share j of every chunk to tree j for an RS-compiled
// tree broadcast.  Every node collects the k shares per chunk (some
// corrupted -- at most a ~0.15k minority, by Lemma 3.3 plus the weak
// packing guarantee) and decodes the nearest codeword; with
// k >= kCPP * lmax the unique-decoding radius (k - lmax)/2 dominates the
// corrupted-share count, so every node recovers DM exactly.
//
// The chunk count is *fixed* from the cap on |DM| (= O(f), Section 3.2.2)
// so all nodes share a deterministic round schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/reed_solomon.h"
#include "gf/gf16.h"

namespace mobile::compile {

/// The c'' margin of Lemma 3.6: block length k >= kCPP * lmax.
inline constexpr int kCPP = 3;
/// The largest DM cap the codec carries: encode writes the key count as
/// one 16-bit symbol, so a larger count would wrap.
inline constexpr int kMaxDmKeys = 65535;

class DmCodec {
 public:
  /// `k` = number of trees (block length), `dmCap` = maximum number of DM
  /// entries transported (at most kMaxDmKeys).
  DmCodec(int k, int dmCap);

  /// The chunk count of DmCodec(k, dmCap), in 64 bits.
  [[nodiscard]] static std::int64_t chunksFor(int k, int dmCap);

  [[nodiscard]] int chunks() const { return chunks_; }
  [[nodiscard]] int lmax() const { return lmax_; }
  [[nodiscard]] int dmCap() const { return dmCap_; }
  [[nodiscard]] std::size_t maxDecodableErrors() const {
    return rs_.maxErrors();
  }

  /// Root side: DM keys -> shares[chunk][tree] (each one 16-bit symbol).
  [[nodiscard]] std::vector<std::vector<gf::F16>> encode(
      const std::vector<std::uint64_t>& dmKeys) const;

  /// Node side: received shares[chunk][tree] -> recovered DM keys.  Trees
  /// whose share never arrived should be filled with F16(0).  Returns an
  /// empty list when any chunk fails to decode (counts as "no update", the
  /// safe failure mode).
  [[nodiscard]] std::vector<std::uint64_t> decode(
      const std::vector<std::vector<gf::F16>>& shares) const;

 private:
  int k_;
  int dmCap_;
  int lmax_;
  int chunks_;
  coding::ReedSolomon rs_;
};

}  // namespace mobile::compile
