// Undirected simple graph in compressed-sparse-row (CSR) layout with
// arc ids that ARE the CSR offsets.
//
// The simulator addresses communication by *arcs* (directed edge sides).
// Arc `a` is a position in the flat adjacency array: node v's out-arcs are
// exactly the contiguous range [firstOutArc(v), firstOutArc(v) + degree(v)),
// in edge-insertion order -- identical to the per-node push_back order of
// the legacy adjacency-vector layout, so algorithm-visible neighbor
// iteration (and therefore every output fingerprint) is unchanged.  The
// send/receive hot path resolves arcs by offset arithmetic; by-id lookups
// (edgeBetween / arcFromTo) binary-search a per-node neighbor-sorted
// position index -- flat, cache-resident, no hash table anywhere.
// Adversaries still corrupt *edges* (both arcs), matching the paper's
// model; arcOfEdge(e, dir) maps an edge to its two CSR arcs (dir 0 is
// u -> v with u < v, the legacy arc 2e).
//
// Construction is two-stage: addEdge() appends to the edge list only (8
// bytes per edge, no per-node vectors, no hash map), and the CSR arrays are
// (re)built on first read after a mutation.  finalize() forces the build;
// call it before sharing one Graph instance across threads -- concurrent
// reads of a finalized graph are safe, a concurrent first-read rebuild is
// not.  Generators return finalized graphs.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace mobile::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using ArcId = std::int32_t;

struct Edge {
  NodeId u = -1;  // u < v invariant
  NodeId v = -1;
};

class Graph {
 public:
  struct Neighbor {
    NodeId node;
    EdgeId edge;
  };

  /// Contiguous view of one node's adjacency (CSR row), in edge-insertion
  /// order.  `firstArc() + i` is the out-arc of the i-th neighbor.
  class NeighborRange {
   public:
    NeighborRange(const Neighbor* data, std::size_t size, ArcId firstArc)
        : data_(data), size_(size), firstArc_(firstArc) {}
    [[nodiscard]] const Neighbor* begin() const { return data_; }
    [[nodiscard]] const Neighbor* end() const { return data_ + size_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] const Neighbor& operator[](std::size_t i) const {
      assert(i < size_);
      return data_[i];
    }
    /// Out-arc id of the first neighbor (arc of neighbor i = firstArc()+i).
    [[nodiscard]] ArcId firstArc() const { return firstArc_; }

   private:
    const Neighbor* data_;
    std::size_t size_;
    ArcId firstArc_;
  };

  Graph() = default;
  explicit Graph(NodeId n) : n_(n) {}

  [[nodiscard]] NodeId nodeCount() const { return n_; }
  [[nodiscard]] EdgeId edgeCount() const {
    return static_cast<EdgeId>(edges_.size());
  }
  [[nodiscard]] ArcId arcCount() const { return 2 * edgeCount(); }

  /// Adds edge (u, v); returns its id.  O(1) append: only the edge list
  /// grows here; the CSR arrays rebuild lazily on the next read.  Self
  /// loops are rejected immediately; parallel edges are rejected (debug
  /// assert) during the CSR rebuild, where detection is free.
  EdgeId addEdge(NodeId u, NodeId v);

  /// Builds the CSR arrays now (idempotent).  Required before sharing the
  /// graph across threads; a finalized graph is immutable until the next
  /// addEdge().
  void finalize() const { ensure(); }
  [[nodiscard]] bool finalized() const { return !dirty_; }

  [[nodiscard]] bool hasEdge(NodeId u, NodeId v) const {
    return edgeBetween(u, v) >= 0;
  }
  /// -1 if none.  Binary search on the smaller endpoint's sorted row:
  /// O(log min-degree), flat memory.
  [[nodiscard]] EdgeId edgeBetween(NodeId u, NodeId v) const;

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] NeighborRange neighbors(NodeId v) const {
    ensure();
    const std::size_t lo = rowLo(v);
    return NeighborRange(adj_.data() + lo, rowHi(v) - lo,
                         static_cast<ArcId>(lo));
  }
  [[nodiscard]] std::size_t degree(NodeId v) const {
    ensure();
    return rowHi(v) - rowLo(v);
  }
  [[nodiscard]] std::size_t minDegree() const;

  // --- arc helpers (ids are CSR offsets) ---------------------------------
  /// First out-arc of v; its i-th neighbor's out-arc is firstOutArc(v)+i.
  [[nodiscard]] ArcId firstOutArc(NodeId v) const {
    ensure();
    return offsets_[static_cast<std::size_t>(v)];
  }
  /// Out-arc from -> to.  O(log degree(from)); asserts the edge exists.
  [[nodiscard]] ArcId arcFromTo(NodeId from, NodeId to) const;
  /// Out-arc from -> to, or -1 when `to` is not a neighbor of `from`.
  [[nodiscard]] ArcId findArc(NodeId from, NodeId to) const;
  /// Source of arc `a`: the node whose CSR row contains offset `a`
  /// (O(log n) offset search; arcTarget/arcEdge/reverseArc are O(1)).
  [[nodiscard]] NodeId arcSource(ArcId a) const;
  [[nodiscard]] NodeId arcTarget(ArcId a) const {
    ensure();
    return adj_[static_cast<std::size_t>(a)].node;
  }
  [[nodiscard]] ArcId reverseArc(ArcId a) const {
    ensure();
    return reverse_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] EdgeId arcEdge(ArcId a) const {
    ensure();
    return adj_[static_cast<std::size_t>(a)].edge;
  }
  /// The two arcs of edge e: dir 0 is u -> v with u < v (the legacy arc
  /// 2e), dir 1 the reverse (legacy 2e+1).
  [[nodiscard]] ArcId arcOfEdge(EdgeId e, int dir) const {
    ensure();
    const ArcId forward = edgeArc_[static_cast<std::size_t>(e)];
    return dir == 0 ? forward : reverse_[static_cast<std::size_t>(forward)];
  }

  [[nodiscard]] bool isConnected() const;

  [[nodiscard]] std::string describe() const;

 private:
  /// Rebuilds the CSR arrays from the edge list when dirty: counting sort
  /// into offsets_, one placement pass (insertion order preserved per row),
  /// then the per-row neighbor-sorted position index.  O(n + m log maxdeg).
  void ensure() const;
  void rebuild() const;

  [[nodiscard]] std::size_t rowLo(NodeId v) const {
    return static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
  }
  [[nodiscard]] std::size_t rowHi(NodeId v) const {
    return static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(v) + 1]);
  }
  NodeId n_ = 0;
  std::vector<Edge> edges_;

  // CSR arrays, valid iff !dirty_.  mutable: rebuilt lazily from const
  // accessors (see the thread-safety note in the header comment).
  mutable bool dirty_ = true;
  mutable std::vector<ArcId> offsets_;   // n+1 row boundaries
  mutable std::vector<Neighbor> adj_;    // arc id -> (target, edge)
  mutable std::vector<ArcId> reverse_;   // arc id -> opposite-direction arc
  mutable std::vector<ArcId> sorted_;    // rows of arc ids, neighbor-sorted
  mutable std::vector<ArcId> edgeArc_;   // edge id -> its u -> v arc (u < v)
};

/// Order-stable digest of a graph's structure (node count + edge list in
/// id order).  Two graphs built by the same generator with the same
/// parameters share a fingerprint; exp::PrecomputeCache keys trusted
/// preprocessing on it so independent trials over value-copied graphs
/// share one packing computation.  Layout-independent: the CSR engine
/// hashes exactly what the legacy adjacency-vector engine hashed.
[[nodiscard]] std::uint64_t structuralFingerprint(const Graph& g);

/// A spanning (or partial) tree over a graph, rooted, with distributed
/// knowledge exactly as the paper assumes: each node knows its parent and
/// children per tree (Definition 6 context).
struct RootedTree {
  NodeId root = -1;
  std::vector<NodeId> parent;           // parent[v]; root's parent = -1
  std::vector<EdgeId> parentEdge;       // edge id towards parent; -1 at root
  std::vector<std::vector<NodeId>> children;
  std::vector<int> depth;               // depth[root] = 0; -1 if not in tree

  [[nodiscard]] bool contains(NodeId v) const {
    return v >= 0 && static_cast<std::size_t>(v) < depth.size() &&
           depth[static_cast<std::size_t>(v)] >= 0;
  }
  [[nodiscard]] int height() const;
  [[nodiscard]] bool spanning(NodeId n) const;
  [[nodiscard]] std::vector<EdgeId> edges() const;

  /// Builds the rooted tree from a parent array (parent[root] == -1).
  static RootedTree fromParents(NodeId root, const std::vector<NodeId>& parent,
                                const Graph& g);
};

}  // namespace mobile::graph
