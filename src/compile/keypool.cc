#include "compile/keypool.h"

#include <cassert>

#include "gf/bitextract.h"

namespace mobile::compile {

KeyPool::KeyPool(int r, int t, int wordsPerRound)
    : r_(r), t_(t), w_(wordsPerRound) {
  assert(r >= 1 && t >= 0 && wordsPerRound >= 1);
  assert(static_cast<long>(w_) * (r + t) <
         static_cast<long>(gf::kGroupOrder));
}

std::vector<std::uint64_t> KeyPool::extract(
    std::span<const std::uint64_t> symbols) const {
  assert(static_cast<int>(symbols.size()) == (r_ + t_) * w_);
  // An adversary that observed a round saw all w_ of its words, so the
  // extractor works on w_*(r+t) symbols of which w_*t are adversary-known.
  const gf::BitExtractor ex(static_cast<std::size_t>((r_ + t_) * w_),
                            static_cast<std::size_t>(t_ * w_));
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(r_ * w_), 0);
  for (int lane = 0; lane < 4; ++lane) {
    std::vector<gf::F16> x;
    x.reserve(symbols.size());
    for (const std::uint64_t w : symbols)
      x.push_back(gf::F16(static_cast<std::uint16_t>(w >> (16 * lane))));
    const std::vector<gf::F16> y = ex.extract(x);
    for (std::size_t i = 0; i < keys.size(); ++i)
      keys[i] |= static_cast<std::uint64_t>(y[i].value()) << (16 * lane);
  }
  return keys;
}

long KeyPool::badEdgeBound(int f, int r, int t) {
  return (static_cast<long>(f) * (r + t)) / (t + 1);
}

PadExchange::PadExchange(const graph::Graph& g, graph::NodeId self,
                         KeyPool pool)
    : g_(g),
      self_(self),
      pool_(pool),
      sent_(g.degree(self)),
      recv_(g.degree(self)),
      sendPads_(g.degree(self)),
      recvPads_(g.degree(self)) {}

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
    sendPads_[i] = pool_.extract(sent_[i]);
    recvPads_[i] = pool_.extract(recv_[i]);
  }
}

}  // namespace mobile::compile
