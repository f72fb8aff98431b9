#include <tuple>

#include <gtest/gtest.h>

#include "compile/common.h"
#include "compile/ecc_broadcast.h"
#include "util/rng.h"

namespace mobile::compile {
namespace {

TEST(DmCodec, RoundTripClean) {
  const DmCodec codec(/*k=*/12, /*dmCap=*/4);
  std::vector<std::uint64_t> keys{encodeKey(1, 2, 0, 77),
                                  encodeKey(3, 4, 1, 0),
                                  encodeKey(5, 6, 0, 0xffffffff)};
  const auto shares = codec.encode(keys);
  EXPECT_EQ(static_cast<int>(shares.size()), codec.chunks());
  EXPECT_EQ(codec.decode(shares), keys);
}

TEST(DmCodec, EmptyList) {
  const DmCodec codec(9, 4);
  const auto shares = codec.encode({});
  EXPECT_TRUE(codec.decode(shares).empty());
}

TEST(DmCodec, ToleratesShareCorruption) {
  const DmCodec codec(15, 3);
  util::Rng rng(1);
  std::vector<std::uint64_t> keys{encodeKey(7, 8, 0, 123)};
  auto shares = codec.encode(keys);
  // Corrupt up to maxDecodableErrors trees' shares in every chunk.
  const std::size_t e = codec.maxDecodableErrors();
  for (auto& chunk : shares) {
    const auto hit = rng.sampleDistinct(chunk.size(), e);
    for (const auto i : hit)
      chunk[i] = gf::F16(static_cast<std::uint16_t>(rng.next()));
  }
  EXPECT_EQ(codec.decode(shares), keys);
}

TEST(DmCodec, TruncatesAtCap) {
  const DmCodec codec(12, 2);
  std::vector<std::uint64_t> keys{encodeKey(1, 2, 0, 1), encodeKey(1, 3, 0, 2),
                                  encodeKey(1, 4, 0, 3)};
  const auto shares = codec.encode(keys);
  const auto back = codec.decode(shares);
  EXPECT_EQ(back.size(), 2u);
}

TEST(DmCodec, CapacityMatchesChunkMath) {
  const DmCodec codec(30, 8);
  EXPECT_EQ(codec.lmax(), 10);
  // 1 + 4*8 = 33 symbols over lmax=10 -> 4 chunks.
  EXPECT_EQ(codec.chunks(), 4);
}

TEST(MessageKeys, EncodeDecodeRoundTrip) {
  for (const auto& [s, r, c, p] :
       {std::tuple{0, 1, 0u, 0ULL}, std::tuple{100, 200, 1u, 0xffffffffULL},
        std::tuple{4095, 4094, 7u, 12345ULL}}) {
    const std::uint64_t key = encodeKey(s, r, c, p);
    const DecodedKey d = decodeKey(key);
    EXPECT_EQ(d.sender, s);
    EXPECT_EQ(d.receiver, r);
    EXPECT_EQ(d.chunk, c);
    EXPECT_EQ(d.payload, p);
  }
}

TEST(MessageKeys, KeysFitSketchUniverse) {
  const std::uint64_t key = encodeKey(4095, 4095, 7, 0xffffffff);
  EXPECT_LT(key, (1ULL << 61) - 1);
}

}  // namespace
}  // namespace mobile::compile
