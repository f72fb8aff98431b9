#include "compile/ecc_broadcast.h"

#include <algorithm>
#include <cassert>

namespace mobile::compile {

namespace {
// A 61-bit key serializes into four 16-bit symbols.
constexpr int kSymbolsPerKey = 4;

int lmaxFor(int k) { return std::max(1, k / kCPP); }
}  // namespace

std::int64_t DmCodec::chunksFor(int k, int dmCap) {
  const std::int64_t lmax = lmaxFor(k);
  return (1 + kSymbolsPerKey * std::int64_t{dmCap} + lmax - 1) / lmax;
}

DmCodec::DmCodec(int k, int dmCap)
    : k_(k),
      dmCap_(dmCap),
      lmax_(lmaxFor(k)),
      chunks_(static_cast<int>(chunksFor(k, dmCap))),
      rs_(static_cast<std::size_t>(lmax_), static_cast<std::size_t>(k)) {
  assert(k >= 1);
  assert(dmCap <= kMaxDmKeys);
  assert(lmax_ <= k_);
}

std::vector<std::vector<gf::F16>> DmCodec::encode(
    const std::vector<std::uint64_t>& dmKeys) const {
  const std::size_t count =
      std::min(dmKeys.size(), static_cast<std::size_t>(dmCap_));
  // Symbol stream: [count][key symbols...] zero-padded to chunks*lmax.
  std::vector<gf::F16> stream;
  stream.reserve(static_cast<std::size_t>(chunks_ * lmax_));
  stream.push_back(gf::F16(static_cast<std::uint16_t>(count)));
  for (std::size_t i = 0; i < count; ++i)
    for (int s = 0; s < kSymbolsPerKey; ++s)
      stream.push_back(
          gf::F16(static_cast<std::uint16_t>(dmKeys[i] >> (16 * s))));
  stream.resize(static_cast<std::size_t>(chunks_ * lmax_), gf::F16(0));

  std::vector<std::vector<gf::F16>> shares;
  shares.reserve(static_cast<std::size_t>(chunks_));
  for (int c = 0; c < chunks_; ++c) {
    std::vector<gf::F16> msg(
        stream.begin() + static_cast<std::ptrdiff_t>(c * lmax_),
        stream.begin() + static_cast<std::ptrdiff_t>((c + 1) * lmax_));
    shares.push_back(rs_.encode(msg));
  }
  return shares;
}

std::vector<std::uint64_t> DmCodec::decode(
    const std::vector<std::vector<gf::F16>>& shares) const {
  assert(static_cast<int>(shares.size()) == chunks_);
  std::vector<gf::F16> stream;
  stream.reserve(static_cast<std::size_t>(chunks_ * lmax_));
  for (int c = 0; c < chunks_; ++c) {
    assert(static_cast<int>(shares[static_cast<std::size_t>(c)].size()) == k_);
    auto msg = rs_.decode(shares[static_cast<std::size_t>(c)]);
    if (!msg.has_value()) return {};  // undecodable: skip this update
    stream.insert(stream.end(), msg->begin(), msg->end());
  }
  const std::size_t count = std::min<std::size_t>(
      stream[0].value(), static_cast<std::size_t>(dmCap_));
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    for (int s = 0; s < kSymbolsPerKey; ++s) {
      const std::size_t idx =
          1 + i * kSymbolsPerKey + static_cast<std::size_t>(s);
      if (idx < stream.size())
        key |= static_cast<std::uint64_t>(stream[idx].value()) << (16 * s);
    }
    keys.push_back(key);
  }
  return keys;
}

}  // namespace mobile::compile
