#include "compile/keypool.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mobile::compile {

namespace {

/// One table per evaluation point a_i = alpha^(i+1), i < symbols.
std::shared_ptr<const std::vector<gf::MulTable>> pointTables(long symbols) {
  auto points = std::make_shared<std::vector<gf::MulTable>>();
  points->reserve(static_cast<std::size_t>(symbols));
  for (long i = 0; i < symbols; ++i)
    points->emplace_back(gf::F16::alpha(static_cast<std::uint32_t>(i + 1)));
  return points;
}

/// Running values held on the stack per block of evaluation points.
constexpr std::size_t kBlock = 64;

}  // namespace

KeyPool::KeyPool(int r, int t, int wordsPerRound)
    : r_(r),
      t_(t),
      w_(wordsPerRound),
      points_(pointTables(symbols(r, t, wordsPerRound))) {
  assert(r >= 1 && t >= 0 && wordsPerRound >= 1);
  assert(symbols(r, t, wordsPerRound) <= kMaxSymbols);
}

void KeyPool::extract(std::span<const std::uint64_t> symbols,
                      std::span<std::uint64_t> keys) const {
  assert(symbols.size() == symbolWords() && keys.size() == keyWords());
  // An adversary that observed a round saw all w_ of its words, so the
  // extractor works on w_*(r+t) symbols of which w_*t are adversary-known.
  // Key word j is the power sum y_j = sum_i x_i a_i^j: per block of points
  // the running values v_i = x_i a_i^j are summed into y_j, then each steps
  // to x_i a_i^(j+1).  Every word carries four independent 16-bit lanes.
  std::fill(keys.begin(), keys.end(), 0);
  const gf::MulTable* points = points_->data();
  std::uint64_t v[kBlock];
  for (std::size_t b = 0; b < symbols.size(); b += kBlock) {
    const std::size_t len = std::min(kBlock, symbols.size() - b);
    std::copy_n(symbols.begin() + static_cast<std::ptrdiff_t>(b), len, v);
    for (std::size_t j = 0;; ++j) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < len; ++i) sum ^= v[i];
      keys[j] ^= sum;
      if (j + 1 == keys.size()) break;
      for (std::size_t i = 0; i < len; ++i)
        v[i] = points[b + i].mulLanes(v[i]);
    }
  }
}

long KeyPool::badEdgeBound(int f, int r, int t) {
  return (static_cast<long>(f) * (r + t)) / (t + 1);
}

PadExchange::PadExchange(const graph::Graph& g, graph::NodeId self,
                         KeyPool pool)
    : g_(g),
      self_(self),
      pool_(std::move(pool)),
      sent_(g.degree(self)),
      recv_(g.degree(self)),
      sendPads_(g.degree(self), std::vector<std::uint64_t>(pool_.keyWords())),
      recvPads_(g.degree(self),
                std::vector<std::uint64_t>(pool_.keyWords())) {}

void PadExchange::start() {
  for (auto& words : sent_) words.clear();
  for (auto& words : recv_) words.clear();
}

void PadExchange::send(util::Rng& rng, sim::Outbox& out) {
  const auto& nbs = g_.neighbors(self_);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    sim::Msg& m = sim::resetScratch(wire_);
    for (int w = 0; w < pool_.wordsPerRound(); ++w) {
      m.push(rng.next());
      sent_[i].push_back(m.words.back());
    }
    out.to(nbs[i].node, m);
  }
}

void PadExchange::receive(const sim::Inbox& in) {
  const auto& nbs = g_.neighbors(self_);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const sim::MsgView m = in.from(nbs[i].node);
    for (int w = 0; w < pool_.wordsPerRound(); ++w)
      recv_[i].push_back(m.atOr(static_cast<std::size_t>(w), 0));
  }
}

void PadExchange::derive() {
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    pool_.extract(sent_[i], sendPads_[i]);
    pool_.extract(recv_[i], recvPads_[i]);
  }
}

}  // namespace mobile::compile
