#include "compile/tree_stages.h"

#include <algorithm>
#include <optional>

namespace mobile::compile {

// --- SketchConvergecast -----------------------------------------------------

template <class Sketch>
Sketch& SketchConvergecast<Sketch>::scratch(std::uint64_t seed) const {
  // Held per thread, not per node: every use is confined to one stage call,
  // so the engine's node-parallel lanes share one sketch per thread -- the
  // difference between fitting n=10^6 in single-digit GB and not.  Nodes
  // from different trials (different shapes) interleave on driver lanes.
  static thread_local std::optional<Sketch> cell;
  static thread_local Shape cellShape;
  if (!cell || !(cellShape == shape_)) {
    cell.emplace(seed, shape_);
    cellShape = shape_;
  } else {
    cell->reseed(seed);
  }
  return *cell;
}

template <class Sketch>
void SketchConvergecast<Sketch>::build(int tree, std::uint64_t seed,
                                       const StreamEntries& entries,
                                       sim::Msg& m) const {
  Sketch& s = scratch(seed);
  for (const auto& [key, freq] : entries) s.update(key, freq);
  std::vector<std::uint64_t>& words = sim::resetScratch(m).words;
  s.appendTo(words);
  const auto acc = accum_.find(tree);
  if (acc != accum_.end()) sketch::mergeWords(words, acc->second);
}

template <class Sketch>
const Sketch& SketchConvergecast<Sketch>::merged(
    int tree, std::uint64_t seed, const StreamEntries& entries) const {
  sim::Msg& m = hopScratch();
  build(tree, seed, entries, m);
  Sketch& s = scratch(seed);  // the seed's randomness, cells overwritten
  s.loadWords(m.words.data(), m.size());
  return s;
}

template <class Sketch>
const sim::Msg* SketchConvergecast<Sketch>::send(
    const NodeTreeView& view, int tree, NodeId to, int step,
    std::uint64_t seed, const StreamEntries& entries) {
  if (step != sentStep_) {
    sent_.clear();
    sentStep_ = step;
    std::erase_if(accum_, [&](const auto& acc) {
      const int d = view.depth(acc.first);
      return d > 0 && depthBound_ + 1 - d < step;
    });
  }
  const int d = view.depth(tree);
  if (d <= 0 || step != depthBound_ + 1 - d || to != view.parent(tree))
    return nullptr;
  const auto [hop, fresh] = sent_.try_emplace(tree);
  if (fresh) build(tree, seed, entries, hop->second);
  return &hop->second;
}

template <class Sketch>
bool SketchConvergecast<Sketch>::receive(const NodeTreeView& view, int tree,
                                         NodeId from, int step,
                                         const sim::Msg& m) {
  if (!expects(view, tree, from, step) ||
      m.size() != Sketch::serializedWords(shape_))
    return false;
  const auto [acc, fresh] = accum_.try_emplace(tree, m.words);
  if (!fresh) sketch::mergeWords(acc->second, m.words);
  sent_.erase(tree);
  return true;
}

template <class Sketch>
std::size_t SketchConvergecast<Sketch>::heldWords() const {
  std::size_t words = 0;
  for (const auto& [tree, sum] : accum_) words += sum.size();
  for (const auto& [tree, hop] : sent_) words += hop.size();
  return words;
}

template class SketchConvergecast<sketch::SparseRecovery>;
template class SketchConvergecast<sketch::L0Bundle>;

std::vector<std::uint64_t> recoverMajority(
    const MismatchCorrection<sketch::SparseRecovery>& mc) {
  // Most trees are uncorrupted, so the true support wins the vote; no
  // Delta threshold is needed (Section 1.2.2).
  constexpr std::uint64_t kFailed = ~0ULL;
  std::map<std::vector<std::uint64_t>, int> votes;
  for (int t = 0; t < mc.k(); ++t) {
    std::vector<std::uint64_t> canon;
    const auto rec = mc.merged(t).recoverAll();
    if (rec.has_value()) {
      for (const auto& e : *rec)
        if (e.frequency > 0) canon.push_back(e.key);
      std::sort(canon.begin(), canon.end());
    } else {
      canon.push_back(kFailed);
    }
    ++votes[canon];
  }
  std::vector<std::uint64_t> winner = mostVoted(votes);  // k >= 1 trees
  if (!winner.empty() && winner[0] == kFailed) winner.clear();
  return winner;
}

// --- ShareDowncast -----------------------------------------------------------

void ShareDowncast::start() {
  dm_.clear();
  shares_.assign(static_cast<std::size_t>(codec_.chunks()),
                 std::vector<gf::F16>(static_cast<std::size_t>(k_), gf::F16(0)));
  held_.resize(static_cast<std::size_t>(codec_.chunks() * k_), -1);
}

void ShareDowncast::encode(std::vector<std::uint64_t> dm) {
  if (static_cast<int>(dm.size()) > codec_.dmCap())
    dm.resize(static_cast<std::size_t>(codec_.dmCap()));
  shares_ = codec_.encode(dm);
  dm_ = std::move(dm);
  for (int c = 0; c < codec_.chunks(); ++c)
    for (int t = 0; t < k_; ++t)
      held_[at(c, t)] =
          shares_[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)]
              .value();
}

const sim::Msg* ShareDowncast::send(const NodeTreeView& view, int tree,
                                    NodeId to, int step) const {
  const int wave = (step - 1) / (depthBound_ + 1);
  if (view.depth(tree) != step - 1 - wave * (depthBound_ + 1) ||
      !isChild(view, tree, to, rule_))
    return nullptr;
  sim::Msg& m = sim::resetScratch(hopScratch());
  for (int c = wave * perHop_; c < (wave + 1) * perHop_; ++c) {
    const std::int32_t sym = held_[at(c, tree)];
    if (sym < 0) return nullptr;
    m.push(static_cast<std::uint64_t>(sym));
  }
  return &m;
}

void ShareDowncast::receive(const NodeTreeView& view, int tree, NodeId from,
                            int step, const sim::Msg& m) {
  if (!expects(view, tree, from, step) ||
      m.size() != static_cast<std::size_t>(perHop_))
    return;
  const int wave = (step - 1) / (depthBound_ + 1);
  for (int i = 0; i < perHop_; ++i) {
    const int c = wave * perHop_ + i;
    const auto sym = static_cast<std::uint16_t>(m.at(static_cast<std::size_t>(i)));
    shares_[static_cast<std::size_t>(c)][static_cast<std::size_t>(tree)] =
        gf::F16(sym);
    held_[at(c, tree)] = sym;
  }
}

}  // namespace mobile::compile
