// Compressed transitive-closure rows for large DAG hierarchies.
//
// Dense closure rows cost O(n²/8) bytes — ~96 MB at ImageNet's 28k nodes but
// ~125 GB at 1M, so catalog size (not session count) is what caps scaling.
// This representation exploits the structure real hierarchies have: they are
// trees plus a sparse set of extra edges. Node ids are permuted into DFS
// preorder *positions* over a spanning tree, which makes the reachable set of
// every purely tree-like node one contiguous position interval and leaves the
// remaining rows clustered, so per-4096-bit chunks compress well.
//
// Row storage, chosen per row at build time:
//   - interval: R(v) = [pos(v), subtree_end(v)) — 12 bytes, no payload.
//   - chunked: the row's touched position range split into 4096-bit chunks,
//     each encoded as whichever of {dense words, sorted u16 offsets (delta),
//     run-length (start,len) pairs} is smallest for its density.
//
// All set operations (intersect-count-weight against an alive mask, in-place
// AND/ANDNOT, expansion) run directly on the compressed form via the
// word-window kernels in util/bitset — rows are never materialized densely.
// Alive masks and weight tables passed to these operations live in POSITION
// space: bit/entry p corresponds to node `node_at_pos(p)`.
#ifndef AIGS_GRAPH_COMPRESSED_CLOSURE_H_
#define AIGS_GRAPH_COMPRESSED_CLOSURE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/bitset.h"
#include "util/common.h"

namespace aigs {

/// Chunked hybrid-encoded closure rows over a DFS-preorder position
/// permutation. The build is one serial reverse-topological pass. Each
/// impure row is its own position plus the union of its children's rows.
/// Where every child's row is known as a short sorted list of disjoint
/// position intervals, the row is merged from those lists and encoded
/// straight from its intervals; otherwise it is ORed into one dense scratch
/// row and encoded from that. The choice is per row: the merge runs only
/// while the summed child list length fits in the row's word span. Both
/// paths append to the same pools in the same order, so the encoding
/// depends only on the graph. Peak construction memory is the compressed
/// output, the merged lists, and one O(n/8) scratch row.
class CompressedClosure {
 public:
  /// Builds compressed rows for every node of a finalized digraph whose
  /// root reaches all nodes.
  explicit CompressedClosure(const Digraph& g);

  /// Test seam: encodes the given dense rows verbatim under the *identity*
  /// position mapping (pos(v) = v). Exercises the chunk codec without a
  /// graph. All rows share one bit-width (which becomes num_nodes(), the
  /// position space); there may be fewer rows than bits.
  explicit CompressedClosure(const std::vector<DynamicBitset>& rows);

  std::size_t num_nodes() const { return n_; }

  /// Position of node v in the DFS-preorder permutation.
  std::size_t pos(NodeId v) const { return pos_[v]; }
  /// Node occupying position p (inverse of pos()).
  NodeId node_at_pos(std::size_t p) const { return node_at_pos_[p]; }

  /// |R(u)|.
  std::size_t RowCount(NodeId u) const { return rows_[u].count; }

  /// True iff v ∈ R(u).
  bool Reaches(NodeId u, NodeId v) const { return TestPos(u, pos_[v]); }

  /// True iff the node at position p is in R(u).
  bool TestPos(NodeId u, std::size_t p) const;

  /// |R(u) ∩ alive| and Σ pos_weights over it, fused — the compressed
  /// counterpart of DynamicBitset::MaskedCountAndWeightedSum. `alive` and
  /// `pos_weights` are in position space.
  DynamicBitset::CountAndWeight IntersectCountAndWeight(
      NodeId u, const DynamicBitset& alive,
      const BlockedWeights& pos_weights) const;

  /// |R(u) ∩ alive|.
  std::size_t IntersectCount(NodeId u, const DynamicBitset& alive) const;

  /// alive &= R(u). Positions outside the row's chunks are cleared.
  void IntersectInto(NodeId u, DynamicBitset& alive) const;

  /// alive &= ~R(u).
  void SubtractFrom(NodeId u, DynamicBitset& alive) const;

  /// out |= R(u). `out` must have num_nodes() bits.
  void ExpandRowInto(NodeId u, DynamicBitset& out) const;

  /// Σ over p ∈ R(u) of (prefix[p+1] − prefix[p]), where `prefix` holds
  /// position-space weight prefix sums (size n+1). O(1) per interval row
  /// and per run; O(bits) for delta/dense chunks.
  Weight RowWeightFromPrefix(NodeId u, std::span<const Weight> prefix) const;

  /// Invokes fn(p) for every position p ∈ R(u), ascending.
  template <typename Fn>
  void ForEachPosInRow(NodeId u, Fn&& fn) const {
    const RowRef& row = rows_[u];
    if (row.extent & kIntervalFlag) {
      const std::size_t end = row.first + (row.extent & ~kIntervalFlag);
      for (std::size_t p = row.first; p < end; ++p) {
        fn(p);
      }
      return;
    }
    for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
      const ChunkRef& ref = chunk_refs_[r];
      const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
      const std::uint16_t items = ChunkItems(ref);
      switch (ChunkKindOf(ref)) {
        case kDenseChunk:
          for (std::uint16_t w = 0; w < items; ++w) {
            std::uint64_t word = word_pool_[ref.payload + w];
            while (word != 0) {
              fn(base + (static_cast<std::size_t>(w) << 6) +
                 static_cast<std::size_t>(std::countr_zero(word)));
              word &= word - 1;
            }
          }
          break;
        case kDeltaChunk:
          for (std::uint16_t i = 0; i < items; ++i) {
            fn(base + u16_pool_[ref.payload + i]);
          }
          break;
        case kRunChunk:
          for (std::uint16_t i = 0; i < items; ++i) {
            const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
            const std::size_t len = u16_pool_[ref.payload + 2 * i + 1];
            for (std::size_t p = start; p < start + len; ++p) {
              fn(p);
            }
          }
          break;
      }
    }
  }

  /// Per-representation row/chunk counts, for bench reporting, plus how
  /// the graph build encoded its impure (non-tree-pure) rows: merged from
  /// child interval lists, or ORed into the dense scratch row.
  struct Stats {
    std::size_t interval_rows = 0;
    std::size_t chunked_rows = 0;
    std::size_t dense_chunks = 0;
    std::size_t delta_chunks = 0;
    std::size_t run_chunks = 0;
    std::size_t merged_rows = 0;
    std::size_t scratch_rows = 0;
  };
  Stats stats() const;

  std::size_t NumIntervalRows() const { return stats().interval_rows; }

  /// Bytes held by the index (row table, chunk refs, payload pools, and the
  /// position permutation) — the number the bigcatalog memory gate compares
  /// against the dense n²/8 footprint.
  std::size_t MemoryBytes() const;

  /// True iff the two indexes hold byte-identical encodings: same
  /// permutation, row table, chunk refs, and payload pools.
  bool IdenticalEncoding(const CompressedClosure& other) const;

  /// 64-bit FNV-1a digest over the permutation, row table, chunk refs, and
  /// both payload pools: pins the encoded bytes in golden tests.
  std::uint64_t EncodingDigest() const;

 private:
  // Chunk geometry: 4096 bits = 64 words per chunk; chunk indices fit u16.
  static constexpr std::size_t kChunkBits = 4096;
  static constexpr std::size_t kChunkWords = kChunkBits / 64;
  static constexpr std::size_t kMaxNodes = std::size_t{65536} * kChunkBits;
  static constexpr std::uint32_t kIntervalFlag = 0x80000000u;

  enum ChunkKind : std::uint16_t {
    kDenseChunk = 0,  // payload: `items` raw words in word_pool_
    kDeltaChunk = 1,  // payload: `items` sorted in-chunk bit offsets (u16)
    kRunChunk = 2,    // payload: `items` (start,len) u16 pairs
  };

  // 12 bytes per row. Interval rows: first = start position, extent =
  // length | kIntervalFlag. Chunked rows: [first, first+extent) indexes
  // chunk_refs_ (ascending chunk order). count = |R(u)| either way.
  struct RowRef {
    std::uint32_t first = 0;
    std::uint32_t extent = 0;
    std::uint32_t count = 0;
    bool operator==(const RowRef&) const = default;
  };

  // 8 bytes per non-empty chunk. meta packs kind (2 bits) | items (14 bits).
  struct ChunkRef {
    std::uint32_t payload = 0;
    std::uint16_t chunk = 0;
    std::uint16_t meta = 0;
    bool operator==(const ChunkRef&) const = default;
  };

  static RowRef IntervalRow(std::uint32_t start, std::uint32_t len) {
    return RowRef{start, len | kIntervalFlag, len};
  }
  static ChunkKind ChunkKindOf(const ChunkRef& ref) {
    return static_cast<ChunkKind>(ref.meta & 3);
  }
  static std::uint16_t ChunkItems(const ChunkRef& ref) {
    return static_cast<std::uint16_t>(ref.meta >> 2);
  }

  // Half-open position interval [start, end).
  struct Interval {
    std::uint32_t start;
    std::uint32_t end;
  };

  void BuildFromGraph(const Digraph& g);
  // Starts the ChunkRef for chunk `ck` holding `bits` set bits in `runs`
  // maximal runs over `chunk_words` words: picks the smallest encoding and
  // points the payload at the end of its pool. The caller appends the
  // payload.
  ChunkRef BeginChunk(std::size_t ck, std::size_t bits, std::size_t runs,
                      std::size_t chunk_words) const;
  // Encodes a row given as sorted, disjoint, non-adjacent intervals.
  RowRef EncodeIntervals(std::span<const Interval> list);
  // Encodes the bits of `scratch` (position space) in [lo, hi]; the row must
  // have no set bits outside that range. Contiguous rows become intervals.
  RowRef EncodeScratchRow(const DynamicBitset& scratch, std::size_t lo,
                          std::size_t hi);

  std::size_t n_ = 0;
  std::size_t words_ = 0;  // words per full-width position-space row
  std::vector<std::uint32_t> pos_;
  std::vector<NodeId> node_at_pos_;
  std::vector<RowRef> rows_;
  std::vector<ChunkRef> chunk_refs_;
  std::vector<std::uint64_t> word_pool_;
  std::vector<std::uint16_t> u16_pool_;
  // Build-path row counts reported by stats().
  std::size_t merged_rows_ = 0;
  std::size_t scratch_rows_ = 0;
};

}  // namespace aigs

#endif  // AIGS_GRAPH_COMPRESSED_CLOSURE_H_
