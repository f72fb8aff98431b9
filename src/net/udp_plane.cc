#include "net/udp_plane.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "net/wire.h"
#include "obs/obs.h"

namespace mobile::net {

namespace {

/// Net metric ids (registered at first fold; process-cumulative totals --
/// the per-trial values travel through sim::TransportStats instead).
struct NetMetricIds {
  obs::CounterId segments;
  obs::CounterId retransmits;
  obs::CounterId dupsDropped;
  obs::CounterId lossyDropped;
  obs::CounterId lossyDuplicated;
  obs::CounterId lossyReordered;
  obs::CounterId barrierWaitUs;
};

const NetMetricIds& netMetricIds() {
  static const NetMetricIds ids = [] {
    NetMetricIds m;
    obs::Registry& r = obs::registry();
    m.segments = r.counter("net.segments_sent");
    m.retransmits = r.counter("net.retransmits");
    m.dupsDropped = r.counter("net.dups_dropped");
    m.lossyDropped = r.counter("net.lossy_dropped");
    m.lossyDuplicated = r.counter("net.lossy_duplicated");
    m.lossyReordered = r.counter("net.lossy_reordered");
    m.barrierWaitUs = r.counter("net.barrier_wait_us");
    return m;
  }();
  return ids;
}

/// Folds one trial's local tallies into the process registry (per-rank:
/// each rank's trace carries its own totals).
void foldTransportStats(const sim::TransportStats& t) {
  if (!obs::enabled()) return;
  const NetMetricIds& m = netMetricIds();
  obs::Registry& r = obs::registry();
  r.add(m.segments, t.segmentsSent);
  r.add(m.retransmits, t.retransmits);
  r.add(m.dupsDropped, t.dupsDropped);
  r.add(m.lossyDropped, t.lossyDropped);
  r.add(m.lossyDuplicated, t.lossyDuplicated);
  r.add(m.lossyReordered, t.lossyReordered);
  r.add(m.barrierWaitUs, t.barrierWaitUs);
}

// Frame kinds (first payload byte; tag = next 4 bytes LE).
constexpr std::uint8_t kKindRound = 1;
constexpr std::uint8_t kKindDone = 2;
constexpr std::uint8_t kKindMerge = 3;
constexpr std::uint8_t kKindFin = 4;

void appendU32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  std::uint8_t tmp[4];
  putU32(tmp, v);
  buf.insert(buf.end(), tmp, tmp + 4);
}

void appendU64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  std::uint8_t tmp[8];
  putU64(tmp, v);
  buf.insert(buf.end(), tmp, tmp + 8);
}

/// Bounds-checked reader over a received frame payload.
class FrameReader {
 public:
  FrameReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    const std::uint32_t v = getU32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    const std::uint64_t v = getU64(data_ + pos_);
    pos_ += 8;
    return v;
  }
  void u64Span(std::uint64_t* out, std::size_t count) {
    need(8 * count);
    for (std::size_t i = 0; i < count; ++i)
      out[i] = getU64(data_ + pos_ + 8 * i);
    pos_ += 8 * count;
  }
  [[nodiscard]] std::size_t remaining() const { return len_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (len_ - pos_ < n)
      throw NetError("udp plane: truncated frame (wanted " +
                     std::to_string(n) + " bytes, " +
                     std::to_string(len_ - pos_) + " left)");
  }
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace

UdpPlane::UdpPlane(Transport* transport, FaultSpec faults,
                   PerfectLinkOptions linkOpts, UdpPlaneOptions opts)
    : transport_(transport),
      faults_(faults),
      linkOpts_(linkOpts),
      opts_(opts) {}

void UdpPlane::attach(const graph::Graph& g, int shardCount) {
  MessagePlane::attach(g, shardCount);
  g_ = &g;
  barrierWaitUs_ = 0;
  if (!multi()) return;
  transport_->beginSession(opts_.session, faults_, linkOpts_);
  const int world = transport_->world();
  const int rank = transport_->rank();
  const auto n = static_cast<std::int64_t>(g.nodeCount());
  const auto lo = static_cast<graph::NodeId>(rank * n / world);
  const auto hi = static_cast<graph::NodeId>((rank + 1) * n / world);
  setLocalRange(lo, hi, true);
  // Rank boundaries of the even split (rank r owns [bound[r], bound[r+1])).
  std::vector<graph::NodeId> bound(static_cast<std::size_t>(world) + 1);
  for (int r = 0; r <= world; ++r)
    bound[static_cast<std::size_t>(r)] =
        static_cast<graph::NodeId>(r * n / world);
  crossOut_.assign(static_cast<std::size_t>(world), {});
  for (graph::NodeId v = lo; v < hi; ++v) {
    const auto nbs = g.neighbors(v);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const graph::NodeId head = nbs[i].node;
      if (head >= lo && head < hi) continue;
      const auto it = std::upper_bound(bound.begin(), bound.end(), head);
      const auto r = static_cast<std::size_t>(it - bound.begin()) - 1;
      crossOut_[r].push_back(nbs.firstArc() + static_cast<graph::ArcId>(i));
    }
  }
}

void UdpPlane::expectMessage(int peer, std::uint8_t kind, std::uint32_t tag,
                             std::vector<std::uint8_t>& frame) {
  PerfectLink& link = transport_->link();
  Clock& clock = transport_->clock();
  const std::uint64_t deadline = clock.nowUs() + opts_.roundTimeoutUs;
  // Barrier-wait accounting starts only once the first poll misses, so the
  // already-arrived fast path never reads the clock an extra time.
  bool waited = false;
  std::uint64_t waitStartUs = 0;
  for (;;) {
    if (link.poll(peer, frame)) {
      if (waited) barrierWaitUs_ += clock.nowUs() - waitStartUs;
      if (frame.size() < 5)
        throw NetError("udp plane: runt frame from rank " +
                       std::to_string(peer));
      if (frame[0] != kind || getU32(frame.data() + 1) != tag)
        throw NetError(
            "udp plane: protocol desync with rank " + std::to_string(peer) +
            " (expected kind " + std::to_string(kind) + " tag " +
            std::to_string(tag) + ", got kind " + std::to_string(frame[0]) +
            " tag " + std::to_string(getU32(frame.data() + 1)) + ")");
      return;
    }
    const std::uint64_t now = clock.nowUs();
    if (!waited) {
      waited = true;
      waitStartUs = now;
    }
    if (now >= deadline)
      throw NetError("udp plane: timed out waiting for rank " +
                     std::to_string(peer) + " (kind " + std::to_string(kind) +
                     ", tag " + std::to_string(tag) + ", " +
                     std::to_string(opts_.roundTimeoutUs) + "us)");
    link.pump(std::min<std::uint64_t>(1'000, deadline - now));
  }
}

void UdpPlane::exchange(int round) {
  if (!multi()) return;
  PerfectLink& link = transport_->link();
  const int world = transport_->world();
  const int rank = transport_->rank();
  const auto tag = static_cast<std::uint32_t>(round);
  const sim::ShardedPlane& storage = this->storage();
  const obs::TraceArg roundArg[] = {{"round", round}};
  const obs::Span span("net", "exchange", roundArg, 1);

  // Send every peer its round message first (sends only block when a
  // window fills, and even then keep pumping acks/data), then collect:
  // fully parallel across peer pairs.
  for (int peer = 0; peer < world; ++peer) {
    if (peer == rank) continue;
    sendBuf_.clear();
    sendBuf_.push_back(kKindRound);
    appendU32(sendBuf_, tag);
    const auto& arcs = crossOut_[static_cast<std::size_t>(peer)];
    std::uint32_t count = 0;
    const std::size_t countPos = sendBuf_.size();
    appendU32(sendBuf_, 0);  // patched below
    for (const graph::ArcId a : arcs) {
      const sim::MsgView v = storage.view(a);
      if (!v.present()) continue;
      ++count;
      appendU32(sendBuf_, static_cast<std::uint32_t>(a));
      appendU32(sendBuf_, static_cast<std::uint32_t>(v.size()));
      for (const std::uint64_t w : v.words()) appendU64(sendBuf_, w);
    }
    putU32(sendBuf_.data() + countPos, count);
    link.send(peer, sendBuf_.data(), sendBuf_.size());
  }
  for (int peer = 0; peer < world; ++peer) {
    if (peer == rank) continue;
    expectMessage(peer, kKindRound, tag, recvFrame_);
    FrameReader r(recvFrame_.data() + 5, recvFrame_.size() - 5);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto arc = static_cast<graph::ArcId>(r.u32());
      if (arc < 0 || arc >= g_->arcCount())
        throw NetError("udp plane: rank " + std::to_string(peer) +
                       " sent out-of-range arc " + std::to_string(arc));
      const std::uint32_t words = r.u32();
      wordScratch_.resize(words);
      r.u64Span(wordScratch_.data(), words);
      this->storage().putRemote(arc, wordScratch_.data(), words);
    }
  }
}

bool UdpPlane::resolveAllDone(bool localAllDone) {
  if (!multi()) return localAllDone;
  PerfectLink& link = transport_->link();
  const int world = transport_->world();
  const int rank = transport_->rank();
  const std::uint32_t tag = doneSeq_++;
  for (int peer = 0; peer < world; ++peer) {
    if (peer == rank) continue;
    std::uint8_t msg[6];
    msg[0] = kKindDone;
    putU32(msg + 1, tag);
    msg[5] = localAllDone ? 1 : 0;
    link.send(peer, msg, sizeof(msg));
  }
  bool all = localAllDone;
  for (int peer = 0; peer < world; ++peer) {
    if (peer == rank) continue;
    expectMessage(peer, kKindDone, tag, recvFrame_);
    if (recvFrame_.size() < 6)
      throw NetError("udp plane: runt done frame from rank " +
                     std::to_string(peer));
    all = all && recvFrame_[5] != 0;
  }
  return all;
}

sim::TransportStats UdpPlane::localTransportStats() const {
  sim::TransportStats t;
  t.present = true;
  const PerfectLink& link = transport_->link();
  t.segmentsSent = link.segmentsSent();
  t.retransmits = link.retransmits();
  t.dupsDropped = link.duplicatesDropped();
  if (const LossyChannel* lc = transport_->lossy()) {
    t.lossyDropped = lc->dropped();
    t.lossyDuplicated = lc->duplicated();
    t.lossyReordered = lc->reordered();
  }
  t.barrierWaitUs = barrierWaitUs_;
  return t;
}

bool UdpPlane::mergeTrial(sim::TrialMerge& m) {
  if (!multi()) return true;
  // Snapshot before the merge traffic below perturbs the link counters,
  // and fold this rank's share into its own process registry.
  const sim::TransportStats local = localTransportStats();
  foldTransportStats(local);
  PerfectLink& link = transport_->link();
  Clock& clock = transport_->clock();
  const int world = transport_->world();
  const int rank = transport_->rank();
  const auto sliceOf = [&](int r) {
    const auto n = static_cast<std::int64_t>(g_->nodeCount());
    const auto lo = static_cast<graph::NodeId>(r * n / world);
    const auto hi = static_cast<graph::NodeId>((r + 1) * n / world);
    const graph::ArcId arcLo = lo == hi ? g_->arcCount() : g_->firstOutArc(lo);
    const graph::ArcId arcHi =
        hi == g_->nodeCount() ? g_->arcCount() : g_->firstOutArc(hi);
    return std::make_tuple(lo, hi, arcLo, arcHi);
  };
  if (rank != 0) {
    const auto [lo, hi, arcLo, arcHi] = sliceOf(rank);
    sendBuf_.clear();
    sendBuf_.push_back(kKindMerge);
    appendU32(sendBuf_, 0);
    for (graph::NodeId v = lo; v < hi; ++v)
      appendU64(sendBuf_, m.outputs[static_cast<std::size_t>(v)]);
    for (graph::ArcId a = arcLo; a < arcHi; ++a)
      appendU64(sendBuf_, static_cast<std::uint64_t>(
                              m.arcTraffic[static_cast<std::size_t>(a)]));
    appendU64(sendBuf_, static_cast<std::uint64_t>(m.messages));
    appendU64(sendBuf_, static_cast<std::uint64_t>(m.maxWords));
    appendU64(sendBuf_, static_cast<std::uint64_t>(m.corruptions));
    // Transport tallies ride the same merge frame so rank 0's JSONL line
    // reports world-summed values.
    appendU64(sendBuf_, local.segmentsSent);
    appendU64(sendBuf_, local.retransmits);
    appendU64(sendBuf_, local.dupsDropped);
    appendU64(sendBuf_, local.lossyDropped);
    appendU64(sendBuf_, local.lossyDuplicated);
    appendU64(sendBuf_, local.lossyReordered);
    appendU64(sendBuf_, local.barrierWaitUs);
    link.send(0, sendBuf_.data(), sendBuf_.size());
    // The fin both releases this replica and proves rank 0 needs nothing
    // more from this session.
    expectMessage(0, kKindFin, 0, recvFrame_);
    link.flushInflight(clock.nowUs() + 1'000'000);
    return false;
  }
  m.transport = local;  // rank 0's own share; replica shares sum in below
  for (int peer = 1; peer < world; ++peer) {
    const auto [lo, hi, arcLo, arcHi] = sliceOf(peer);
    expectMessage(peer, kKindMerge, 0, recvFrame_);
    FrameReader r(recvFrame_.data() + 5, recvFrame_.size() - 5);
    for (graph::NodeId v = lo; v < hi; ++v)
      m.outputs[static_cast<std::size_t>(v)] = r.u64();
    for (graph::ArcId a = arcLo; a < arcHi; ++a)
      m.arcTraffic[static_cast<std::size_t>(a)] =
          static_cast<long>(r.u64());
    m.messages += static_cast<long>(r.u64());
    m.maxWords = std::max(m.maxWords, static_cast<std::size_t>(r.u64()));
    m.corruptions += static_cast<long>(r.u64());
    m.transport.segmentsSent += r.u64();
    m.transport.retransmits += r.u64();
    m.transport.dupsDropped += r.u64();
    m.transport.lossyDropped += r.u64();
    m.transport.lossyDuplicated += r.u64();
    m.transport.lossyReordered += r.u64();
    m.transport.barrierWaitUs += r.u64();
  }
  for (int peer = 1; peer < world; ++peer) {
    std::uint8_t fin[5];
    fin[0] = kKindFin;
    putU32(fin + 1, 0);
    link.send(peer, fin, sizeof(fin));
  }
  // Best-effort: retransmit the fins until acked or the deadline passes --
  // a wedged replica must not hang the owner.
  link.flushInflight(clock.nowUs() + 2'000'000);
  return true;
}

}  // namespace mobile::net
