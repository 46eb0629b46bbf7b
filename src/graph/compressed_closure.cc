#include "graph/compressed_closure.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/kernels.h"

namespace aigs {

CompressedClosure::CompressedClosure(const Digraph& g) {
  AIGS_CHECK(g.finalized());
  BuildFromGraph(g);
}

CompressedClosure::CompressedClosure(const std::vector<DynamicBitset>& rows) {
  AIGS_CHECK(!rows.empty());
  n_ = rows[0].size();
  AIGS_CHECK(n_ > 0 && n_ <= kMaxNodes);
  words_ = (n_ + 63) / 64;
  pos_.resize(n_);
  node_at_pos_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    pos_[v] = static_cast<std::uint32_t>(v);
    node_at_pos_[v] = static_cast<NodeId>(v);
  }
  rows_.resize(rows.size());
  for (std::size_t v = 0; v < rows.size(); ++v) {
    AIGS_CHECK(rows[v].size() == n_);
    const std::size_t lo = rows[v].FindFirst();
    if (lo == n_) {
      rows_[v] = RowRef{0, 0, 0};  // empty chunked row
      continue;
    }
    std::size_t hi = lo;
    rows[v].ForEachSetBit([&hi](std::size_t p) { hi = p; });
    rows_[v] = EncodeScratchRow(rows[v], lo, hi);
  }
}

void CompressedClosure::BuildFromGraph(const Digraph& g) {
  n_ = g.NumNodes();
  AIGS_CHECK(n_ > 0 && n_ <= kMaxNodes);
  words_ = (n_ + 63) / 64;

  // 1. DFS-preorder positions over the first-visit spanning tree. The
  // permutation makes every DFS subtree one contiguous position range.
  pos_.assign(n_, 0);
  node_at_pos_.assign(n_, kInvalidNode);
  std::vector<NodeId> tree_parent(n_, kInvalidNode);
  std::vector<std::uint32_t> subtree_end(n_, 0);
  std::vector<bool> visited(n_, false);
  std::uint32_t clock = 0;
  std::vector<std::pair<NodeId, std::size_t>> stack;  // (node, child index)
  const NodeId root = g.root();
  visited[root] = true;
  pos_[root] = clock;
  node_at_pos_[clock++] = root;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [u, next_child] = stack.back();
    const auto children = g.Children(u);
    if (next_child < children.size()) {
      const NodeId c = children[next_child++];
      if (visited[c]) {
        continue;  // non-tree edge
      }
      visited[c] = true;
      tree_parent[c] = u;
      pos_[c] = clock;
      node_at_pos_[clock++] = c;
      stack.emplace_back(c, 0);
    } else {
      subtree_end[u] = clock;
      stack.pop_back();
    }
  }
  AIGS_CHECK(clock == n_);  // finalized graphs: root reaches every node

  // 2. Pure-tree marking, children before parents: R(v) is exactly v's DFS
  // subtree interval iff every out-edge of v is a spanning-tree edge and
  // every child is itself pure.
  const std::vector<NodeId>& topo = g.TopologicalOrder();
  std::vector<bool> pure(n_, false);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    bool p = true;
    for (const NodeId c : g.Children(u)) {
      if (tree_parent[c] != u || !pure[c]) {
        p = false;
        break;
      }
    }
    pure[u] = p;
  }

  // 3. Reverse-topological encode. Pure rows become intervals outright.
  // An impure row R(u) = {pos(u)} ∪ ⋃ R(c) is merged from its children's
  // interval lists when every child has one (interval rows are one-interval
  // lists) and their summed length fits in the row's word span — then the
  // merge is cheaper than ORing and rescanning that many words. Otherwise
  // the row is ORed into the dense scratch row, encoded, and cleared again.
  rows_.resize(n_);
  // Touched range [lo, hi] of each finished row, so parents know how far
  // their union reaches without scanning.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> bounds(n_);
  // Merged rows keep their coalesced interval list in `lists`, for their
  // parents to merge in turn.
  constexpr std::uint32_t kNoList = 0xFFFFFFFFu;
  std::vector<std::uint32_t> list_begin(n_, kNoList);
  std::vector<std::uint32_t> list_len(n_, 0);
  std::vector<Interval> lists;
  std::vector<Interval> pending;  // one row's uncoalesced child intervals
  std::vector<NodeId> by_count;   // one scratch row's children, widest first
  DynamicBitset scratch(n_);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    if (pure[u]) {
      rows_[u] = IntervalRow(pos_[u], subtree_end[u] - pos_[u]);
      bounds[u] = {pos_[u], subtree_end[u] - 1};
      continue;
    }
    std::size_t lo = pos_[u];
    std::size_t hi = pos_[u];
    std::size_t listed = 1;  // {pos(u)} itself
    bool mergeable = true;
    for (const NodeId c : g.Children(u)) {
      lo = std::min<std::size_t>(lo, bounds[c].first);
      hi = std::max<std::size_t>(hi, bounds[c].second);
      if (rows_[c].extent & kIntervalFlag) {
        ++listed;
      } else if (list_begin[c] == kNoList) {
        mergeable = false;
      } else {
        listed += list_len[c];
      }
    }
    bounds[u] = {static_cast<std::uint32_t>(lo),
                 static_cast<std::uint32_t>(hi)};
    if (!mergeable || listed > hi / 64 - lo / 64 + 1) {
      // Widest children first: a child whose position is already set is
      // reached by an earlier one, so its row adds nothing to the union.
      by_count.assign(g.Children(u).begin(), g.Children(u).end());
      std::sort(by_count.begin(), by_count.end(),
                [this](NodeId a, NodeId b) {
                  return rows_[a].count > rows_[b].count;
                });
      scratch.Set(pos_[u]);
      for (const NodeId c : by_count) {
        if (!scratch.Test(pos_[c])) {
          ExpandRowInto(c, scratch);
        }
      }
      rows_[u] = EncodeScratchRow(scratch, lo, hi);
      scratch.ClearRange(lo, hi + 1);
      ++scratch_rows_;
      continue;
    }
    pending.clear();
    pending.push_back({pos_[u], pos_[u] + 1});
    for (const NodeId c : g.Children(u)) {
      const RowRef& row = rows_[c];
      if (row.extent & kIntervalFlag) {
        pending.push_back({row.first, row.first + row.count});
      } else {
        pending.insert(pending.end(), lists.begin() + list_begin[c],
                       lists.begin() + list_begin[c] + list_len[c]);
      }
    }
    std::sort(pending.begin(), pending.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    const std::size_t begin = lists.size();
    lists.push_back(pending.front());
    for (const Interval& iv : pending) {
      if (iv.start <= lists.back().end) {
        lists.back().end = std::max(lists.back().end, iv.end);
      } else {
        lists.push_back(iv);
      }
    }
    AIGS_CHECK(lists.size() <= kNoList);
    list_begin[u] = static_cast<std::uint32_t>(begin);
    list_len[u] = static_cast<std::uint32_t>(lists.size() - begin);
    rows_[u] = EncodeIntervals(
        std::span<const Interval>(lists.data() + begin, list_len[u]));
    ++merged_rows_;
  }
}

CompressedClosure::ChunkRef CompressedClosure::BeginChunk(
    std::size_t ck, std::size_t bits, std::size_t runs,
    std::size_t chunk_words) const {
  const std::size_t dense_cost = chunk_words * 8;
  const std::size_t delta_cost = 2 * bits;
  const std::size_t run_cost = 4 * runs;
  ChunkRef ref;
  ref.chunk = static_cast<std::uint16_t>(ck);
  if (run_cost <= delta_cost && run_cost <= dense_cost) {
    AIGS_CHECK(u16_pool_.size() <= 0xFFFFFFFFu);
    ref.payload = static_cast<std::uint32_t>(u16_pool_.size());
    ref.meta = static_cast<std::uint16_t>(kRunChunk | (runs << 2));
  } else if (delta_cost <= dense_cost) {
    AIGS_CHECK(u16_pool_.size() <= 0xFFFFFFFFu);
    ref.payload = static_cast<std::uint32_t>(u16_pool_.size());
    ref.meta = static_cast<std::uint16_t>(kDeltaChunk | (bits << 2));
  } else {
    AIGS_CHECK(word_pool_.size() <= 0xFFFFFFFFu);
    ref.payload = static_cast<std::uint32_t>(word_pool_.size());
    ref.meta = static_cast<std::uint16_t>(kDenseChunk | (chunk_words << 2));
  }
  return ref;
}

CompressedClosure::RowRef CompressedClosure::EncodeIntervals(
    std::span<const Interval> list) {
  AIGS_DCHECK(!list.empty());
  std::size_t count = 0;
  for (const Interval& iv : list) {
    count += iv.end - iv.start;
  }
  if (list.size() == 1) {
    return IntervalRow(list[0].start, static_cast<std::uint32_t>(count));
  }
  const std::size_t first_ref = chunk_refs_.size();
  // Invariant: list[i] overlaps chunk ck. Intervals [i, j) overlap it, the
  // last possibly continuing into the next chunk. Each clipped interval is
  // one maximal run of the chunk, since the list is coalesced.
  std::size_t i = 0;
  std::size_t ck = list[0].start / kChunkBits;
  while (i < list.size()) {
    const std::size_t base = ck * kChunkBits;
    const std::size_t limit = base + kChunkBits;
    std::size_t bits = 0;
    std::size_t j = i;
    for (; j < list.size() && list[j].start < limit; ++j) {
      bits += std::min<std::size_t>(list[j].end, limit) -
              std::max<std::size_t>(list[j].start, base);
    }
    const std::size_t chunk_words =
        std::min(kChunkWords, words_ - ck * kChunkWords);
    const ChunkRef ref = BeginChunk(ck, bits, j - i, chunk_words);
    if (ChunkKindOf(ref) == kDenseChunk) {
      word_pool_.resize(word_pool_.size() + chunk_words, 0);
    }
    for (std::size_t k = i; k < j; ++k) {
      const std::size_t s = std::max<std::size_t>(list[k].start, base) - base;
      const std::size_t e = std::min<std::size_t>(list[k].end, limit) - base;
      switch (ChunkKindOf(ref)) {
        case kRunChunk:
          u16_pool_.push_back(static_cast<std::uint16_t>(s));
          u16_pool_.push_back(static_cast<std::uint16_t>(e - s));
          break;
        case kDeltaChunk:
          for (std::size_t p = s; p < e; ++p) {
            u16_pool_.push_back(static_cast<std::uint16_t>(p));
          }
          break;
        case kDenseChunk:
          for (std::size_t p = s; p < e;) {
            const std::size_t w = p >> 6;
            const std::size_t stop = std::min(e, (w + 1) << 6);
            const std::size_t len = stop - p;
            const std::uint64_t ones =
                len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
            word_pool_[ref.payload + w] |= ones << (p & 63);
            p = stop;
          }
          break;
      }
    }
    chunk_refs_.push_back(ref);
    if (list[j - 1].end > limit) {
      i = j - 1;  // continues into the next chunk
      ++ck;
    } else {
      i = j;
      if (i < list.size()) {
        ck = list[i].start / kChunkBits;
      }
    }
  }
  AIGS_CHECK(chunk_refs_.size() - first_ref <= 0xFFFFFFFFu);
  return RowRef{static_cast<std::uint32_t>(first_ref),
                static_cast<std::uint32_t>(chunk_refs_.size() - first_ref),
                static_cast<std::uint32_t>(count)};
}

CompressedClosure::RowRef CompressedClosure::EncodeScratchRow(
    const DynamicBitset& scratch, std::size_t lo, std::size_t hi) {
  AIGS_DCHECK(lo <= hi && hi < n_);
  const kernels::Ops& ops = kernels::Active();
  const std::uint64_t* words = scratch.words().data();
  const std::size_t count =
      ops.popcount_words(words + lo / 64, hi / 64 - lo / 64 + 1);
  AIGS_DCHECK(count > 0);
  if (count == hi - lo + 1) {
    // Contiguous — store as an interval even when u is not tree-pure (the
    // root of a DAG, for instance, always reaches [0, n)).
    return IntervalRow(static_cast<std::uint32_t>(lo),
                       static_cast<std::uint32_t>(count));
  }
  const std::size_t first_ref = chunk_refs_.size();
  for (std::size_t ck = lo / kChunkBits; ck <= hi / kChunkBits; ++ck) {
    const std::uint64_t* chunk = words + ck * kChunkWords;
    const std::size_t chunk_words =
        std::min(kChunkWords, words_ - ck * kChunkWords);
    const std::size_t bits = ops.popcount_words(chunk, chunk_words);
    if (bits == 0) {
      continue;
    }
    // Run starts: set bits whose predecessor in the chunk is clear. `carry`
    // threads bit 63 of the previous word so a run spanning a word boundary
    // counts once.
    std::uint64_t starts[kChunkWords];
    std::uint64_t carry = 0;
    for (std::size_t w = 0; w < chunk_words; ++w) {
      starts[w] = chunk[w] & ~((chunk[w] << 1) | carry);
      carry = chunk[w] >> 63;
    }
    const std::size_t runs = ops.popcount_words(starts, chunk_words);
    const ChunkRef ref = BeginChunk(ck, bits, runs, chunk_words);
    switch (ChunkKindOf(ref)) {
      case kRunChunk: {
        // Extract maximal runs of set bits, merging across word boundaries.
        std::size_t run_start = 0;
        std::size_t run_len = 0;
        for (std::size_t w = 0; w < chunk_words; ++w) {
          std::uint64_t word = chunk[w];
          while (word != 0) {
            const std::size_t start =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
            const std::uint64_t shifted = word >> (start & 63);
            const std::size_t len =
                static_cast<std::size_t>(std::countr_one(shifted));
            if (run_len > 0 && run_start + run_len == start) {
              run_len += len;  // continues the previous word's trailing run
            } else {
              if (run_len > 0) {
                u16_pool_.push_back(static_cast<std::uint16_t>(run_start));
                u16_pool_.push_back(static_cast<std::uint16_t>(run_len));
              }
              run_start = start;
              run_len = len;
            }
            if ((start & 63) + len >= 64) {
              word = 0;
            } else {
              word &= ~std::uint64_t{0} << ((start & 63) + len);
            }
          }
        }
        u16_pool_.push_back(static_cast<std::uint16_t>(run_start));
        u16_pool_.push_back(static_cast<std::uint16_t>(run_len));
        break;
      }
      case kDeltaChunk:
        for (std::size_t w = 0; w < chunk_words; ++w) {
          std::uint64_t word = chunk[w];
          while (word != 0) {
            u16_pool_.push_back(static_cast<std::uint16_t>(
                (w << 6) + static_cast<std::size_t>(std::countr_zero(word))));
            word &= word - 1;
          }
        }
        break;
      case kDenseChunk:
        word_pool_.insert(word_pool_.end(), chunk, chunk + chunk_words);
        break;
    }
    chunk_refs_.push_back(ref);
  }
  AIGS_CHECK(chunk_refs_.size() - first_ref <= 0xFFFFFFFFu);
  return RowRef{static_cast<std::uint32_t>(first_ref),
                static_cast<std::uint32_t>(chunk_refs_.size() - first_ref),
                static_cast<std::uint32_t>(count)};
}

bool CompressedClosure::TestPos(NodeId u, std::size_t p) const {
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    return p >= row.first && p < row.first + (row.extent & ~kIntervalFlag);
  }
  const std::uint16_t ck = static_cast<std::uint16_t>(p / kChunkBits);
  const auto begin = chunk_refs_.begin() + row.first;
  const auto end = begin + row.extent;
  const auto it = std::lower_bound(
      begin, end, ck,
      [](const ChunkRef& ref, std::uint16_t c) { return ref.chunk < c; });
  if (it == end || it->chunk != ck) {
    return false;
  }
  const std::uint16_t off = static_cast<std::uint16_t>(p % kChunkBits);
  const std::uint16_t items = ChunkItems(*it);
  switch (ChunkKindOf(*it)) {
    case kDenseChunk: {
      const std::uint16_t w = off >> 6;
      if (w >= items) {
        return false;
      }
      return (word_pool_[it->payload + w] >> (off & 63)) & 1;
    }
    case kDeltaChunk: {
      const std::uint16_t* base = u16_pool_.data() + it->payload;
      return std::binary_search(base, base + items, off);
    }
    case kRunChunk:
      for (std::uint16_t i = 0; i < items; ++i) {
        const std::uint16_t start = u16_pool_[it->payload + 2 * i];
        if (off < start) {
          return false;  // runs are ascending
        }
        if (off < start + u16_pool_[it->payload + 2 * i + 1]) {
          return true;
        }
      }
      return false;
  }
  return false;
}

DynamicBitset::CountAndWeight CompressedClosure::IntersectCountAndWeight(
    NodeId u, const DynamicBitset& alive,
    const BlockedWeights& pos_weights) const {
  AIGS_DCHECK(alive.size() == n_);
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    return alive.RangeCountAndWeightedSum(
        row.first, row.first + (row.extent & ~kIntervalFlag), pos_weights);
  }
  DynamicBitset::CountAndWeight out;
  const std::vector<Weight>& values = pos_weights.weights();
  for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
    const ChunkRef& ref = chunk_refs_[r];
    const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
    const std::uint16_t items = ChunkItems(ref);
    switch (ChunkKindOf(ref)) {
      case kDenseChunk: {
        const auto part = alive.MaskedWordsCountAndWeightedSum(
            static_cast<std::size_t>(ref.chunk) * kChunkWords,
            std::span<const std::uint64_t>(word_pool_.data() + ref.payload,
                                           items),
            pos_weights);
        out.count += part.count;
        out.weight += part.weight;
        break;
      }
      case kDeltaChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t p = base + u16_pool_[ref.payload + i];
          if (alive.Test(p)) {
            ++out.count;
            out.weight += values[p];
          }
        }
        break;
      case kRunChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
          const std::size_t len = u16_pool_[ref.payload + 2 * i + 1];
          const auto part =
              alive.RangeCountAndWeightedSum(start, start + len, pos_weights);
          out.count += part.count;
          out.weight += part.weight;
        }
        break;
    }
  }
  return out;
}

std::size_t CompressedClosure::IntersectCount(NodeId u,
                                              const DynamicBitset& alive) const {
  AIGS_DCHECK(alive.size() == n_);
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    return alive.CountInRange(row.first,
                              row.first + (row.extent & ~kIntervalFlag));
  }
  std::size_t total = 0;
  const std::vector<std::uint64_t>& alive_words = alive.words();
  for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
    const ChunkRef& ref = chunk_refs_[r];
    const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
    const std::uint16_t items = ChunkItems(ref);
    switch (ChunkKindOf(ref)) {
      case kDenseChunk: {
        const std::size_t wbegin =
            static_cast<std::size_t>(ref.chunk) * kChunkWords;
        for (std::uint16_t w = 0; w < items; ++w) {
          total += static_cast<std::size_t>(std::popcount(
              alive_words[wbegin + w] & word_pool_[ref.payload + w]));
        }
        break;
      }
      case kDeltaChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          total += alive.Test(base + u16_pool_[ref.payload + i]) ? 1 : 0;
        }
        break;
      case kRunChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
          const std::size_t len = u16_pool_[ref.payload + 2 * i + 1];
          total += alive.CountInRange(start, start + len);
        }
        break;
    }
  }
  return total;
}

void CompressedClosure::IntersectInto(NodeId u, DynamicBitset& alive) const {
  AIGS_DCHECK(alive.size() == n_);
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    alive.KeepOnlyRange(row.first, row.first + (row.extent & ~kIntervalFlag));
    return;
  }
  std::size_t prev = 0;  // first position not yet masked
  for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
    const ChunkRef& ref = chunk_refs_[r];
    const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
    const std::size_t chunk_end = std::min(base + kChunkBits, n_);
    alive.ClearRange(prev, base);
    const std::uint16_t items = ChunkItems(ref);
    switch (ChunkKindOf(ref)) {
      case kDenseChunk: {
        alive.AndWordsAt(
            static_cast<std::size_t>(ref.chunk) * kChunkWords,
            std::span<const std::uint64_t>(word_pool_.data() + ref.payload,
                                           items));
        // A dense payload always spans the whole (possibly tail-short)
        // chunk, so nothing past its words needs clearing.
        break;
      }
      case kDeltaChunk: {
        std::uint64_t decoded[kChunkWords] = {};
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::uint16_t off = u16_pool_[ref.payload + i];
          decoded[off >> 6] |= std::uint64_t{1} << (off & 63);
        }
        const std::size_t wbegin =
            static_cast<std::size_t>(ref.chunk) * kChunkWords;
        alive.AndWordsAt(wbegin, std::span<const std::uint64_t>(
                                     decoded, std::min(kChunkWords,
                                                       words_ - wbegin)));
        break;
      }
      case kRunChunk: {
        std::size_t keep_from = base;
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
          const std::size_t len = u16_pool_[ref.payload + 2 * i + 1];
          alive.ClearRange(keep_from, start);
          keep_from = start + len;
        }
        alive.ClearRange(keep_from, chunk_end);
        break;
      }
    }
    prev = chunk_end;
  }
  alive.ClearRange(prev, n_);
}

void CompressedClosure::SubtractFrom(NodeId u, DynamicBitset& alive) const {
  AIGS_DCHECK(alive.size() == n_);
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    alive.ClearRange(row.first, row.first + (row.extent & ~kIntervalFlag));
    return;
  }
  for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
    const ChunkRef& ref = chunk_refs_[r];
    const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
    const std::uint16_t items = ChunkItems(ref);
    switch (ChunkKindOf(ref)) {
      case kDenseChunk:
        alive.AndNotWordsAt(
            static_cast<std::size_t>(ref.chunk) * kChunkWords,
            std::span<const std::uint64_t>(word_pool_.data() + ref.payload,
                                           items));
        break;
      case kDeltaChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          alive.Reset(base + u16_pool_[ref.payload + i]);
        }
        break;
      case kRunChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
          alive.ClearRange(start, start + u16_pool_[ref.payload + 2 * i + 1]);
        }
        break;
    }
  }
}

void CompressedClosure::ExpandRowInto(NodeId u, DynamicBitset& out) const {
  AIGS_DCHECK(out.size() == n_);
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    out.SetRange(row.first, row.first + (row.extent & ~kIntervalFlag));
    return;
  }
  for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
    const ChunkRef& ref = chunk_refs_[r];
    const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
    const std::uint16_t items = ChunkItems(ref);
    switch (ChunkKindOf(ref)) {
      case kDenseChunk:
        out.OrWordsAt(
            static_cast<std::size_t>(ref.chunk) * kChunkWords,
            std::span<const std::uint64_t>(word_pool_.data() + ref.payload,
                                           items));
        break;
      case kDeltaChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          out.Set(base + u16_pool_[ref.payload + i]);
        }
        break;
      case kRunChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
          out.SetRange(start, start + u16_pool_[ref.payload + 2 * i + 1]);
        }
        break;
    }
  }
}

Weight CompressedClosure::RowWeightFromPrefix(
    NodeId u, std::span<const Weight> prefix) const {
  AIGS_DCHECK(prefix.size() == n_ + 1);
  const RowRef& row = rows_[u];
  if (row.extent & kIntervalFlag) {
    const std::size_t end = row.first + (row.extent & ~kIntervalFlag);
    return prefix[end] - prefix[row.first];
  }
  Weight total = 0;
  for (std::uint32_t r = row.first; r < row.first + row.extent; ++r) {
    const ChunkRef& ref = chunk_refs_[r];
    const std::size_t base = static_cast<std::size_t>(ref.chunk) * kChunkBits;
    const std::uint16_t items = ChunkItems(ref);
    switch (ChunkKindOf(ref)) {
      case kDenseChunk:
        for (std::uint16_t w = 0; w < items; ++w) {
          std::uint64_t word = word_pool_[ref.payload + w];
          while (word != 0) {
            const std::size_t p = base + (static_cast<std::size_t>(w) << 6) +
                                  static_cast<std::size_t>(
                                      std::countr_zero(word));
            total += prefix[p + 1] - prefix[p];
            word &= word - 1;
          }
        }
        break;
      case kDeltaChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t p = base + u16_pool_[ref.payload + i];
          total += prefix[p + 1] - prefix[p];
        }
        break;
      case kRunChunk:
        for (std::uint16_t i = 0; i < items; ++i) {
          const std::size_t start = base + u16_pool_[ref.payload + 2 * i];
          const std::size_t len = u16_pool_[ref.payload + 2 * i + 1];
          total += prefix[start + len] - prefix[start];
        }
        break;
    }
  }
  return total;
}

CompressedClosure::Stats CompressedClosure::stats() const {
  Stats s;
  for (const RowRef& row : rows_) {
    if (row.extent & kIntervalFlag) {
      ++s.interval_rows;
    } else {
      ++s.chunked_rows;
    }
  }
  for (const ChunkRef& ref : chunk_refs_) {
    switch (ChunkKindOf(ref)) {
      case kDenseChunk:
        ++s.dense_chunks;
        break;
      case kDeltaChunk:
        ++s.delta_chunks;
        break;
      case kRunChunk:
        ++s.run_chunks;
        break;
    }
  }
  s.merged_rows = merged_rows_;
  s.scratch_rows = scratch_rows_;
  return s;
}

bool CompressedClosure::IdenticalEncoding(const CompressedClosure& other) const {
  return n_ == other.n_ && pos_ == other.pos_ &&
         node_at_pos_ == other.node_at_pos_ && rows_ == other.rows_ &&
         chunk_refs_ == other.chunk_refs_ && word_pool_ == other.word_pool_ &&
         u16_pool_ == other.u16_pool_;
}

std::uint64_t CompressedClosure::EncodingDigest() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(n_);
  for (const std::uint32_t p : pos_) {
    mix(p);
  }
  mix(rows_.size());
  for (const RowRef& row : rows_) {
    mix((static_cast<std::uint64_t>(row.first) << 32) | row.extent);
    mix(row.count);
  }
  mix(chunk_refs_.size());
  for (const ChunkRef& ref : chunk_refs_) {
    mix((static_cast<std::uint64_t>(ref.payload) << 32) |
        (static_cast<std::uint64_t>(ref.chunk) << 16) | ref.meta);
  }
  mix(word_pool_.size());
  for (const std::uint64_t word : word_pool_) {
    mix(word);
  }
  mix(u16_pool_.size());
  for (const std::uint16_t value : u16_pool_) {
    mix(value);
  }
  return h;
}

std::size_t CompressedClosure::MemoryBytes() const {
  return rows_.size() * sizeof(RowRef) +
         chunk_refs_.size() * sizeof(ChunkRef) +
         word_pool_.size() * sizeof(std::uint64_t) +
         u16_pool_.size() * sizeof(std::uint16_t) +
         pos_.size() * sizeof(std::uint32_t) +
         node_at_pos_.size() * sizeof(NodeId);
}

}  // namespace aigs
