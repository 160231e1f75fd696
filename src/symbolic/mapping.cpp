#include "symbolic/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <stdexcept>

#include "blas/blas.hpp"

namespace sympack::symbolic {
namespace {

/// The supernodal elimination tree: a panel's parent is the supernode
/// owning its first below-diagonal row. Parents have larger indices than
/// their children. With `member`, the tree is restricted to the panels
/// it marks: a member whose parent is not one is a root, and the other
/// panels belong to no tree.
struct SnodeTree {
  std::vector<char> in;
  std::vector<idx_t> parent;
  std::vector<std::vector<idx_t>> children;
  std::vector<idx_t> roots;

  explicit SnodeTree(const Symbolic& sym,
                     const std::vector<char>* member = nullptr) {
    const idx_t ns = sym.num_snodes();
    in = member != nullptr ? *member : std::vector<char>(ns, 1);
    parent.assign(ns, -1);
    children.resize(ns);
    for (idx_t k = 0; k < ns; ++k) {
      if (in[k] == 0) continue;
      const auto& sn = sym.snode(k);
      if (!sn.below.empty()) parent[k] = sym.snode_of(sn.below.front());
      if (parent[k] >= 0 && in[parent[k]] == 0) parent[k] = -1;
      if (parent[k] >= 0) {
        children[parent[k]].push_back(k);
      } else {
        roots.push_back(k);
      }
    }
  }

  /// Sum a per-panel cost over each panel's subtree.
  template <typename T>
  std::vector<T> subtree_sums(std::vector<T> own) const {
    for (std::size_t k = 0; k < own.size(); ++k) {
      if (parent[k] >= 0) own[parent[k]] += own[k];
    }
    return own;
  }
};

/// LPT list scheduling: each subtree, offered heaviest first, goes to
/// the least-loaded rank, ties to the lowest rank id. Ranks not yet used
/// have load 0, so the first `nranks` subtrees go to ranks 0, 1, ... and
/// the heap only ever holds used ranks.
class Lpt {
 public:
  explicit Lpt(int nranks) : nranks_(nranks) {}

  int place(std::int64_t cost) {
    int rank;
    std::int64_t load = cost;
    if (fresh_ < nranks_) {
      rank = fresh_++;
    } else {
      rank = loads_.top().second;
      load += loads_.top().first;
      loads_.pop();
    }
    loads_.emplace(load, rank);
    if (load > max_load_) max_load_ = load;
    return rank;
  }

  [[nodiscard]] std::int64_t max_load() const { return max_load_; }

 private:
  using Load = std::pair<std::int64_t, int>;
  int nranks_;
  int fresh_ = 0;
  std::int64_t max_load_ = 0;
  std::priority_queue<Load, std::vector<Load>, std::greater<>> loads_;
};

/// Geist & Ng's layer search over `tree`. The cost of a subtree is its
/// task count (one diagonal task plus one per off-diagonal block per
/// panel), not its flops: the simulated regime is latency-bound, and a
/// flop-balanced layer piles many small panels on one rank (DESIGN.md
/// §4l). Starting from the roots, the heaviest splittable subtree is
/// replaced by its children until the layer has at least `nranks`
/// subtrees and LPT puts at most (1 + ε) × the average on every rank.
/// Returns the LPT rank in [0, nranks) of every layer root and -1 for
/// every other panel, or an empty vector when no layer balances.
std::vector<int> find_layer(const Symbolic& sym, const SnodeTree& tree,
                            int nranks) {
  constexpr double eps = Mapping::kLayerImbalance;
  const idx_t ns = sym.num_snodes();
  std::vector<std::int64_t> own(ns);
  for (idx_t k = 0; k < ns; ++k) {
    own[k] = 1 + static_cast<std::int64_t>(sym.snode(k).blocks.size());
  }
  const std::vector<std::int64_t> cost = tree.subtree_sums(std::move(own));

  // The layer, heaviest first (ties to the lower panel id), and a
  // max-heap of its splittable (non-leaf) subtrees.
  using Item = std::pair<std::int64_t, idx_t>;  // (subtree cost, root)
  const auto heavier = [](const Item& a, const Item& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::set<Item, decltype(heavier)> layer(heavier);
  const auto lighter = [&](const Item& a, const Item& b) {
    return heavier(b, a);
  };
  std::priority_queue<Item, std::vector<Item>, decltype(lighter)> splittable(
      lighter);
  std::int64_t total = 0;
  const auto enter = [&](idx_t k) {
    layer.emplace(cost[k], k);
    if (!tree.children[k].empty()) splittable.emplace(cost[k], k);
    total += cost[k];
  };
  for (const idx_t r : tree.roots) enter(r);

  // Does LPT put at most (1 + ε) × the average on every rank? A subtree
  // of cost ≤ ε × average lands on a rank holding ≤ the average, so it
  // cannot break the bound: a check deals only the heavy head of the
  // layer, fewer than P / ε subtrees. Checks are paid for by splits: one
  // runs only while the subtrees dealt so far stay within (P + splits) /
  // ε, so the search costs O((ns + P) / ε · log P) on top of the heaps'
  // O(ns log ns). A check skipped for want of budget only moves the stop
  // a few splits down; the last layer is always checked.
  std::int64_t dealt = 0;
  std::int64_t splits = 0;
  const auto balanced = [&]() {
    if (layer.size() < static_cast<std::size_t>(nranks)) return false;
    const double avg = static_cast<double>(total) / nranks;
    const double bound = (1.0 + eps) * avg;
    if (static_cast<double>(layer.begin()->first) > bound) return false;
    if (!splittable.empty() &&
        static_cast<double>(dealt) >
            static_cast<double>(nranks + splits) / eps) {
      return false;
    }
    Lpt lpt(nranks);
    for (const Item& it : layer) {
      if (static_cast<double>(it.first) <= eps * avg) break;
      ++dealt;
      lpt.place(it.first);
      if (static_cast<double>(lpt.max_load()) > bound) return false;
    }
    return true;
  };
  while (!balanced()) {
    if (splittable.empty()) return {};
    const idx_t k = splittable.top().second;
    splittable.pop();
    layer.erase({cost[k], k});
    total -= cost[k];
    for (const idx_t c : tree.children[k]) enter(c);
    ++splits;
  }

  std::vector<int> rank(ns, -1);
  Lpt lpt(nranks);
  for (const Item& it : layer) rank[it.second] = lpt.place(it.first);
  return rank;
}

/// Hand each layer root's rank (find_layer's `rank`, translated by
/// `rank_of`) down to its descendants in `tree`, parents before children
/// (descending panel index), and write the ranges: [r, r + 1) inside the
/// layer, empty (the grid) for the tree's panels above it. Panels outside
/// the tree keep their range.
template <typename RankOf>
void hand_down(const SnodeTree& tree, std::vector<int> rank, RankOf rank_of,
               std::vector<std::pair<int, int>>& ranges) {
  for (idx_t k = static_cast<idx_t>(rank.size()) - 1; k >= 0; --k) {
    if (tree.in[k] == 0) continue;
    if (rank[k] < 0 && tree.parent[k] >= 0) rank[k] = rank[tree.parent[k]];
    if (rank[k] >= 0) {
      const int r = rank_of(rank[k]);
      ranges[k] = {r, r + 1};
    } else {
      ranges[k] = {0, 0};
    }
  }
}

/// Flops of the busiest rank under `map`: the POTRF of every diagonal
/// block and the TRSM of every off-diagonal block on the block's owner,
/// every SYRK/GEMM update on the owner of its target block.
double busiest_flops(const Symbolic& sym, const Mapping& map) {
  std::vector<double> flops(static_cast<std::size_t>(map.nranks()), 0.0);
  for (idx_t j = 0; j < sym.num_snodes(); ++j) {
    const auto& sn = sym.snode(j);
    const auto w = static_cast<int>(sn.width());
    flops[map(j, j)] += static_cast<double>(blas::potrf_flops(w));
    for (std::size_t si = 0; si < sn.blocks.size(); ++si) {
      const auto& s = sn.blocks[si];
      const auto rs = static_cast<int>(s.nrows);
      flops[map(s.target, j)] += static_cast<double>(w) * w * rs;
      flops[map(s.target, s.target)] +=
          static_cast<double>(blas::syrk_flops(rs, w));
      for (std::size_t ti = 0; ti < si; ++ti) {
        const auto& t = sn.blocks[ti];
        flops[map(s.target, t.target)] += static_cast<double>(
            blas::gemm_flops(rs, static_cast<int>(t.nrows), w));
      }
    }
  }
  return *std::max_element(flops.begin(), flops.end());
}

}  // namespace

Mapping::Mapping(int nranks, Kind kind) : nranks_(nranks), kind_(kind) {
  if (nranks < 1) throw std::invalid_argument("Mapping: nranks < 1");
  // Near-square grid: largest divisor of P that is <= sqrt(P).
  pr_ = static_cast<int>(std::sqrt(static_cast<double>(nranks)));
  while (pr_ > 1 && nranks % pr_ != 0) --pr_;
  pc_ = nranks / pr_;
}

Mapping Mapping::build(int nranks, Kind kind, const Symbolic& sym) {
  switch (kind) {
    case Kind::kProportional: return proportional(nranks, sym);
    case Kind::kSubtreeLayer: return subtree_layer(nranks, sym);
    default: return Mapping(nranks, kind);
  }
}

Mapping Mapping::proportional(int nranks, const Symbolic& sym) {
  const idx_t ns = sym.num_snodes();
  const SnodeTree tree(sym);
  // Per-panel factorization cost, accumulated over subtrees.
  std::vector<double> own(ns);
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym.snode(k);
    const double w = static_cast<double>(sn.width());
    const double b = static_cast<double>(sn.nrows_below());
    own[k] = w * w * w / 3.0 + w * w * b + w * b * (b + 1.0);
  }
  const std::vector<double> subtree = tree.subtree_sums(std::move(own));

  auto ranges = std::make_shared<std::vector<std::pair<int, int>>>(
      ns, std::pair<int, int>{0, nranks});
  // Recursive proportional split, iteratively with an explicit stack:
  // a node keeps its parent's full range; its children divide that range
  // proportionally to their subtree costs (each at least one rank).
  struct Frame {
    std::vector<idx_t> nodes;  // siblings sharing [lo, hi)
    int lo, hi;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{tree.roots, 0, nranks});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const int width = f.hi - f.lo;
    double total = 0.0;
    for (idx_t k : f.nodes) total += subtree[k];
    double cum = 0.0;
    for (std::size_t c = 0; c < f.nodes.size(); ++c) {
      const idx_t k = f.nodes[c];
      int lo = f.lo, hi = f.hi;
      if (width > 1 && f.nodes.size() > 1 && total > 0.0) {
        lo = f.lo + static_cast<int>(cum / total * width);
        cum += subtree[k];
        hi = f.lo + static_cast<int>(cum / total * width);
        if (hi <= lo) hi = lo + 1;       // every subtree gets a rank
        if (hi > f.hi) hi = f.hi;
        if (lo >= f.hi) lo = f.hi - 1;
      }
      (*ranges)[k] = {lo, hi};
      if (!tree.children[k].empty()) {
        stack.push_back(Frame{tree.children[k], lo, hi});
      }
    }
  }

  Mapping m(nranks, Kind::kProportional);
  m.ranges_ = std::move(ranges);
  return m;
}

Mapping Mapping::subtree_layer(int nranks, const Symbolic& sym) {
  const Mapping grid(nranks);
  if (nranks < 2) return grid;
  const SnodeTree tree(sym);
  const std::vector<int> rank = find_layer(sym, tree, nranks);
  if (rank.empty()) return grid;  // no layer balances
  Mapping m(nranks, Kind::kSubtreeLayer);
  auto ranges = std::make_shared<std::vector<std::pair<int, int>>>(
      sym.num_snodes(), std::pair<int, int>{0, 0});
  hand_down(tree, rank, [](int r) { return r; }, *ranges);
  m.ranges_ = std::move(ranges);
  if (busiest_flops(sym, m) >
      (1.0 + kLayerFlopExcess) * busiest_flops(sym, grid)) {
    return grid;
  }
  return m;
}

Mapping Mapping::without(int dead, const std::vector<char>& started,
                         const Symbolic& sym) const {
  Mapping m = *this;
  auto hand_overs = hand_overs_ != nullptr
                        ? std::make_shared<std::vector<HandOver>>(*hand_overs_)
                        : std::make_shared<std::vector<HandOver>>();
  std::vector<char> gone(static_cast<std::size_t>(nranks_), 0);
  gone[static_cast<std::size_t>(dead)] = 1;
  for (const HandOver& h : *hand_overs) {
    gone[static_cast<std::size_t>(h.dead)] = 1;
  }
  HandOver h{dead, {}};
  for (int r = 0; r < nranks_; ++r) {
    if (gone[static_cast<std::size_t>(r)] == 0) h.heirs.push_back(r);
  }
  if (h.heirs.empty()) {
    throw std::invalid_argument("Mapping::without: no survivor left");
  }
  const std::vector<int> heirs = h.heirs;
  hand_overs->push_back(std::move(h));
  m.hand_overs_ = std::move(hand_overs);
  if (kind_ != Kind::kSubtreeLayer) return m;

  const idx_t ns = sym.num_snodes();
  std::vector<char> lost(ns, 0);
  for (idx_t k = 0; k < ns; ++k) {
    const auto& [lo, hi] = (*ranges_)[k];
    lost[k] = lo == dead && hi == dead + 1 && started[k] == 0;
  }
  const SnodeTree tree(sym, &lost);
  std::vector<int> rank =
      find_layer(sym, tree, static_cast<int>(heirs.size()));
  // No layer balances the region on the survivors: all of it goes to
  // the grid.
  if (rank.empty()) rank.assign(ns, -1);
  auto ranges = std::make_shared<std::vector<std::pair<int, int>>>(*ranges_);
  hand_down(tree, rank, [&heirs](int r) { return heirs[r]; }, *ranges);
  m.ranges_ = std::move(ranges);
  return m;
}

int Mapping::operator()(idx_t i, idx_t j) const {
  int r = place(i, j);
  if (hand_overs_ != nullptr) {
    for (const HandOver& h : *hand_overs_) {
      if (r == h.dead) {
        r = h.heirs[static_cast<std::size_t>(i + j) % h.heirs.size()];
      }
    }
  }
  return r;
}

int Mapping::place(idx_t i, idx_t j) const {
  switch (kind_) {
    case Kind::k2dBlockCyclic:
      return static_cast<int>((i % pr_) * pc_ + (j % pc_));
    case Kind::kRowCyclic:
      return static_cast<int>(i % nranks_);
    case Kind::kColCyclic:
      return static_cast<int>(j % nranks_);
    case Kind::kProportional:
    case Kind::kSubtreeLayer: {
      if (!ranges_) {
        throw std::logic_error(
            "tree mappings must be built with Mapping::build()");
      }
      const auto& [lo, hi] = (*ranges_)[j];
      if (hi > lo) return lo + static_cast<int>(i % (hi - lo));
      return static_cast<int>((i % pr_) * pc_ + (j % pc_));  // above layer
    }
  }
  return 0;
}

Mapping::Kind Mapping::parse(const std::string& name) {
  if (name == "2d" || name == "block-cyclic" || name == "2dbc") {
    return Kind::k2dBlockCyclic;
  }
  if (name == "row") return Kind::kRowCyclic;
  if (name == "col" || name == "column") return Kind::kColCyclic;
  if (name == "proportional" || name == "subtree") {
    return Kind::kProportional;
  }
  if (name == "subtree-layer") return Kind::kSubtreeLayer;
  throw std::invalid_argument("unknown mapping: " + name);
}

const char* Mapping::kind_name(Kind kind) {
  switch (kind) {
    case Kind::k2dBlockCyclic: return "2d";
    case Kind::kRowCyclic: return "row";
    case Kind::kColCyclic: return "col";
    case Kind::kProportional: return "proportional";
    case Kind::kSubtreeLayer: return "subtree-layer";
  }
  return "?";
}

}  // namespace sympack::symbolic
