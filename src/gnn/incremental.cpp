#include "gnn/incremental.hpp"

#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dg::gnn {

using nn::Tensor;

double incremental_memo_cap_mb() {
  return util::env_double("DEEPGATE_INCREMENTAL_MEMO_MB", 512.0);
}

namespace {

/// Stable counting sort of `list` into per-node lists: key(x) names the
/// node, item(x) the entry; every node's entries keep their list order.
template <class T, class List, class Key, class Item>
void fill_adjacency(GraphSnapshot::Adjacency<T>& adj, int num_nodes, const List& list,
                    const Key& key, const Item& item) {
  adj.start.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& x : list) ++adj.start[static_cast<std::size_t>(key(x)) + 1];
  for (std::size_t v = 0; v < static_cast<std::size_t>(num_nodes); ++v)
    adj.start[v + 1] += adj.start[v];
  adj.items.resize(list.size());
  std::vector<int> fill(adj.start.begin(), adj.start.end() - 1);
  for (const auto& x : list)
    adj.items[static_cast<std::size_t>(fill[static_cast<std::size_t>(key(x))]++)] = item(x);
}

}  // namespace

void GraphSnapshot::capture(const CircuitGraph& g) {
  generation = g.generation;
  num_nodes = g.num_nodes;
  num_levels = g.num_levels;
  level = g.level;
  pos = g.node_pos;
  type = g.type_id;
  using Edge = std::pair<int, int>;
  fill_adjacency(fanins, num_nodes, g.edges, [](const Edge& e) { return e.second; },
                 [](const Edge& e) { return e.first; });
  fill_adjacency(fanouts, num_nodes, g.edges, [](const Edge& e) { return e.first; },
                 [](const Edge& e) { return e.second; });
  using Skip = analysis::SkipEdge;
  fill_adjacency(skip_fanins, num_nodes, g.skip_edges, [](const Skip& e) { return e.dst; },
                 [](const Skip& e) { return std::pair<int, int>(e.src, e.level_diff); });
  const auto lv = static_cast<std::size_t>(g.num_levels);
  fwd_nonempty.assign(lv, 0);
  fwd_skip_nonempty.assign(lv, 0);
  rev_nonempty.assign(lv, 0);
  for (std::size_t L = 0; L < lv; ++L) {
    fwd_nonempty[L] = g.fwd[L].empty() ? 0 : 1;
    fwd_skip_nonempty[L] = g.fwd_skip[L].empty() ? 0 : 1;
    rev_nonempty[L] = g.rev[L].empty() ? 0 : 1;
  }
}

nn::Matrix& writable(Tensor& t) {
  if (!t.sole_owner()) t = nn::constant(t.value());
  return t.mutable_value();
}

namespace {

/// Per-node dirty seeds: nodes whose h0 or per-level update inputs differ
/// between the memoized snapshot `then` and the current one `now`.
/// Conservative in the safe direction only.
std::vector<std::uint8_t> dirty_seeds(const GraphSnapshot& now, const GraphSnapshot& then,
                                      const std::vector<int>& old_of_new,
                                      const DirtySeedOptions& opts) {
  const auto n = static_cast<std::size_t>(now.num_nodes);
  assert(old_of_new.size() == n);
  std::vector<std::uint8_t> dirty(n, 0);

  // A neighbor list matches when it has the same length and every current
  // neighbor existed at the snapshot with the same old id in the same slot.
  const auto lists_match = [&](std::span<const int> a, std::span<const int> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (old_of_new[static_cast<std::size_t>(a[i])] != b[i]) return false;
    return true;
  };
  const auto skips_match = [&](std::span<const std::pair<int, int>> a,
                               std::span<const std::pair<int, int>> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (old_of_new[static_cast<std::size_t>(a[i].first)] != b[i].first ||
          a[i].second != b[i].second)
        return false;
    return true;
  };

  for (std::size_t v = 0; v < n; ++v) {
    const int o = old_of_new[v];
    if (o < 0 || o >= then.num_nodes) {
      dirty[v] = 1;  // node did not exist at the memoized generation
      continue;
    }
    const auto oi = static_cast<std::size_t>(o);
    // Layout: the random-h0 cell and the batch coordinates. Same level then
    // and now, the level's update pattern still flips when a batch goes
    // (non)empty.
    const auto L = static_cast<std::size_t>(now.level[v]);
    const auto oL = static_cast<std::size_t>(then.level[oi]);
    const bool layout_moved =
        opts.track_layout &&
        (L != oL || now.pos[v] != then.pos[oi] ||
         now.fwd_nonempty[L] != then.fwd_nonempty[oL] ||
         now.fwd_skip_nonempty[L] != then.fwd_skip_nonempty[oL] ||
         (opts.track_reverse && now.rev_nonempty[L] != then.rev_nonempty[oL]));
    const int vn = static_cast<int>(v);
    if (now.type[v] != then.type[oi] || layout_moved ||
        !lists_match(now.fanins.of(vn), then.fanins.of(o)) ||
        !skips_match(now.skip_fanins.of(vn), then.skip_fanins.of(o)) ||
        (opts.track_reverse && !lists_match(now.fanouts.of(vn), then.fanouts.of(o))))
      dirty[v] = 1;
  }
  return dirty;
}

}  // namespace

LayeredSweeps::LayeredSweeps(const CircuitGraph& g, const ModelConfig& cfg,
                             std::vector<const DirectedLayer*> layers)
    : Sweeps(g), cfg_(cfg), layers_(std::move(layers)), x_lvl_(level_onehot(g)) {}

DirtySeedOptions LayeredSweeps::dirty_options() const {
  DirtySeedOptions opts;  // layout-tracked: levels/positions drive batches and h0 cells
  opts.track_reverse = false;
  for (const DirectedLayer* layer : layers_) opts.track_reverse |= layer->reversed();
  return opts;
}

std::vector<Tensor> LayeredSweeps::initial() {
  return init_level_states(g_, cfg_.dim, cfg_.random_h0, cfg_.seed);
}

void LayeredSweeps::full(std::size_t s, std::vector<Tensor>& states) {
  const DirectedLayer& layer = *layers_[s];
  DirectedLayer::Scratch& scratch = scratch_[&layer];
  layer.for_each_level(g_, [&](int L) { layer.step(g_, L, states, x_lvl_, &scratch); });
}

int LayeredSweeps::adopt(std::vector<std::vector<Tensor>>& checkpoints,
                         const std::vector<int>& /*old_of_new*/,
                         const std::vector<std::uint8_t>& dirty) {
  // Layout is tracked, so a clean node sits at its memoized (level, pos)
  // cell: only levels whose row count changed are reallocated. A row past
  // the old count, or on a level the memo lacks, belongs to a dirty node
  // and is written before any sweep reads it.
  const auto num_levels = static_cast<std::size_t>(g_.num_levels);
  const int dim = cfg_.dim;
  for (auto& ckpt : checkpoints) ckpt.resize(num_levels);
  for (std::size_t L = 0; L < num_levels; ++L) {
    const int rows = static_cast<int>(g_.nodes_at_level[L].size());
    // Checkpoints sharing one tensor share its resized copy too.
    Tensor old_shared;
    Tensor new_shared;
    for (auto& ckpt : checkpoints) {
      Tensor& t = ckpt[L];
      if (t.defined() && t.rows() == rows) continue;
      if (new_shared.defined() && t.node() == old_shared.node()) {
        t = new_shared;
        continue;
      }
      nn::Matrix m(rows, dim);
      if (t.defined()) {
        const int keep = std::min(rows, t.rows());
        std::copy_n(t.value().data(), static_cast<std::size_t>(keep) * dim, m.data());
      }
      old_shared = t;
      t = nn::constant(std::move(m));
      new_shared = t;
    }
  }

  int drawn = 0;
  std::vector<Tensor>& h0 = checkpoints[0];
  for (int v = 0; v < g_.num_nodes; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (dirty[vi] == 0) continue;
    const int L = g_.level[vi];
    const int pos = g_.node_pos[vi];
    init_state_row(g_, dim, cfg_.random_h0, cfg_.seed, L, pos, v,
                   writable(h0[static_cast<std::size_t>(L)]).row_ptr(pos));
    ++drawn;
  }
  return drawn;
}

const LayeredSweeps::BatchIndex& LayeredSweeps::batch_index(const DirectedLayer& layer) {
  auto [it, fresh] = index_.try_emplace(&layer.batch_at(g_, 0));
  BatchIndex& ix = it->second;
  if (!fresh) return ix;
  const auto num_levels = static_cast<std::size_t>(g_.num_levels);
  ix.row_start.resize(num_levels);
  ix.row_edges.resize(num_levels);
  std::vector<std::pair<int, int>> reads;  // (source node, reading node)
  for (int L = 0; L < g_.num_levels; ++L) {
    const LevelBatch& batch = layer.batch_at(g_, L);
    if (!layer.visits(g_, L) || batch.empty()) continue;
    const auto lvl = static_cast<std::size_t>(L);
    const auto& nodes = g_.nodes_at_level[lvl];
    std::vector<int>& start = ix.row_start[lvl];
    std::vector<int>& edges = ix.row_edges[lvl];
    start.assign(nodes.size() + 1, 0);
    for (const int r : batch.seg) ++start[static_cast<std::size_t>(r) + 1];
    for (std::size_t r = 0; r < nodes.size(); ++r) start[r + 1] += start[r];
    edges.resize(batch.seg.size());
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (std::size_t e = 0; e < batch.seg.size(); ++e)
      edges[static_cast<std::size_t>(fill[static_cast<std::size_t>(batch.seg[e])]++)] =
          static_cast<int>(e);
    std::size_t e = 0;
    for (const auto& group : batch.groups) {
      const auto& src_nodes = g_.nodes_at_level[static_cast<std::size_t>(group.level)];
      for (const int pos : group.pos)
        reads.emplace_back(src_nodes[static_cast<std::size_t>(pos)],
                           nodes[static_cast<std::size_t>(batch.seg[e++])]);
    }
  }
  using Read = std::pair<int, int>;
  fill_adjacency(ix.readers, g_.num_nodes, reads, [](const Read& r) { return r.first; },
                 [](const Read& r) { return r.second; });
  return ix;
}

int LayeredSweeps::partial(std::size_t s, const std::vector<Tensor>& entry,
                           std::vector<Tensor>& next, std::vector<std::uint8_t>& dirty) {
  const DirectedLayer& layer = *layers_[s];
  DirectedLayer::Scratch& scratch = scratch_[&layer];
  const BatchIndex& ix = batch_index(layer);
  const int num_levels = g_.num_levels;

  // Candidate rows per level: the dirty nodes, and the nodes that read a
  // dirty node as a message source. A reader's level comes after its
  // source's in sweep order, so a node that turns dirty mid-sweep still
  // enlists its readers before their level is stepped.
  std::vector<std::vector<int>> cand(static_cast<std::size_t>(num_levels));
  std::vector<std::uint8_t> listed(static_cast<std::size_t>(g_.num_nodes), 0);
  const auto enlist = [&](int v) {
    const auto vi = static_cast<std::size_t>(v);
    if (listed[vi] != 0) return;
    listed[vi] = 1;
    cand[static_cast<std::size_t>(g_.level[vi])].push_back(v);
  };
  const auto enlist_readers = [&](int u) {
    for (const int v : ix.readers.of(u)) enlist(v);
  };
  for (int v = 0; v < g_.num_nodes; ++v)
    if (dirty[static_cast<std::size_t>(v)] != 0) {
      enlist(v);
      enlist_readers(v);
    }

  // Every level in sweep order, the ones the layer carries included: a
  // carried level's rows are message sources of the levels after it.
  int stepped = 0;
  std::vector<int> rows;
  std::vector<std::pair<int, int>> picked;  // (edge, index into rows)
  EdgeSelection sel;
  for (int i = 0; i < num_levels; ++i) {
    const int L = layer.reversed() ? num_levels - 1 - i : i;
    const auto lvl = static_cast<std::size_t>(L);
    const std::vector<int>& list = cand[lvl];
    if (list.empty()) continue;

    if (!layer.visits(g_, L) || layer.batch_at(g_, L).empty()) {
      // Carried: dirty rows take their entry value. No node reads a source
      // here, so every candidate is a dirty node.
      if (next[lvl].node() == entry[lvl].node()) continue;
      nn::Matrix& out = writable(next[lvl]);
      const nn::Matrix& in = entry[lvl].value();
      for (const int v : list) {
        const int r = g_.node_pos[static_cast<std::size_t>(v)];
        std::copy_n(in.row_ptr(r), in.cols(), out.row_ptr(r));
      }
      continue;
    }

    // Stepped: every candidate row is dirty from here on.
    rows.clear();
    for (const int v : list) rows.push_back(g_.node_pos[static_cast<std::size_t>(v)]);
    for (const int v : list) {
      std::uint8_t& d = dirty[static_cast<std::size_t>(v)];
      if (d == 0) {
        d = 1;
        enlist_readers(v);
      }
    }
    std::sort(rows.begin(), rows.end());
    const std::vector<int>& start = ix.row_start[lvl];
    const std::vector<int>& edges = ix.row_edges[lvl];
    picked.clear();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto r = static_cast<std::size_t>(rows[k]);
      for (int j = start[r]; j < start[r + 1]; ++j)
        picked.emplace_back(edges[static_cast<std::size_t>(j)], static_cast<int>(k));
    }
    std::sort(picked.begin(), picked.end());
    sel.edges.clear();
    sel.seg.clear();
    for (const auto& [e, k] : picked) {
      sel.edges.push_back(e);
      sel.seg.push_back(k);
    }

    const Tensor updated = layer.step_rows(g_, L, next, entry[lvl], x_lvl_, rows, sel, &scratch);
    nn::Matrix& out = writable(next[lvl]);
    const int dim = out.cols();
    for (std::size_t k = 0; k < rows.size(); ++k)
      std::copy_n(updated.value().row_ptr(static_cast<int>(k)), dim, out.row_ptr(rows[k]));
    stepped += static_cast<int>(rows.size());
  }
  return stepped;
}

Tensor LayeredSweeps::embedding(const std::vector<Tensor>& states) const {
  return full_from_levels(states, g_);
}

Tensor run_sweeps(Sweeps& sweeps, std::vector<std::vector<Tensor>>* checkpoints) {
  count_full_forward();
  std::vector<Tensor> states = sweeps.initial();
  if (checkpoints != nullptr) checkpoints->push_back(states);
  for (std::size_t s = 0; s < sweeps.count(); ++s) {
    sweeps.full(s, states);
    if (checkpoints != nullptr) checkpoints->push_back(states);
  }
  return sweeps.embedding(states);
}

ForwardOutputs run_incremental(Sweeps& sweeps, const Regressor& regressor, int dim,
                               IncrementalState* state, const std::vector<int>& old_of_new,
                               IncrementalRunStats* stats) {
  const CircuitGraph& g = sweeps.graph();
  if (nn::grad_enabled())
    throw std::logic_error("forward_incremental: requires nn::NoGradGuard");
  if (g.is_batch())
    throw std::invalid_argument("forward_incremental: merged batch graphs not supported");
  IncrementalRunStats local;
  IncrementalRunStats& st = stats != nullptr ? *stats : local;
  st = {};

  auto* memo_state = dynamic_cast<MemoState*>(state);
  if (memo_state == nullptr) {
    const Tensor h = run_sweeps(sweeps);
    return {regressor.forward(h, g), h};
  }
  LevelMemo& memo = memo_state->memo;

  // Unchanged generation: replay the cached outputs — zero propagation.
  if (memo.valid && memo.snap.generation == g.generation &&
      memo.snap.num_nodes == g.num_nodes) {
    static obs::Counter& memo_hits = obs::counter("gnn.memo.hits");
    memo_hits.add();
    st.memo_hit = true;
    return {nn::constant(memo.prediction), nn::constant(memo.embedding)};
  }
  static obs::Counter& memo_misses = obs::counter("gnn.memo.misses");
  memo_misses.add();

  const double est_mb = static_cast<double>(sweeps.count() + 1) *
                        static_cast<double>(g.num_nodes) * static_cast<double>(dim) * 4.0 /
                        (1024.0 * 1024.0);
  const bool fits = est_mb <= incremental_memo_cap_mb();
  const bool partial = fits && memo.valid && memo.has_checkpoints &&
                       memo.checkpoints.size() == sweeps.count() + 1 &&
                       old_of_new.size() == static_cast<std::size_t>(g.num_nodes) &&
                       g.num_nodes > 0;

  // One adjacency build per miss: the current snapshot feeds the dirty-seed
  // diff and then becomes the memo's.
  GraphSnapshot snap;
  snap.capture(g);
  std::vector<std::vector<Tensor>> checkpoints;
  Tensor h;
  Tensor pred;
  if (!partial) {
    h = run_sweeps(sweeps, fits ? &checkpoints : nullptr);
    pred = regressor.forward(h, g);
  } else {
    count_partial_forward();
    std::vector<std::uint8_t> dirty =
        dirty_seeds(snap, memo.snap, old_of_new, sweeps.dirty_options());
    // The memo's checkpoints are the working state from here on. Until the
    // refresh below the memo is invalid, so an exception mid-run leaves a
    // memo that the next query rebuilds rather than a half-updated one.
    memo.valid = false;
    memo.has_checkpoints = false;
    checkpoints = std::move(memo.checkpoints);
    memo.checkpoints.clear();
    st.h0_rows = sweeps.adopt(checkpoints, old_of_new, dirty);
    for (std::size_t s = 0; s < sweeps.count(); ++s)
      st.rows_stepped += sweeps.partial(s, checkpoints[s], checkpoints[s + 1], dirty);
    h = sweeps.embedding(checkpoints.back());
    static obs::Counter& h0_rows = obs::counter("gnn.incremental.h0_rows");
    static obs::Counter& rows_stepped = obs::counter("gnn.incremental.rows_stepped");
    h0_rows.add(static_cast<std::uint64_t>(st.h0_rows));
    rows_stepped.add(static_cast<std::uint64_t>(st.rows_stepped));

    // Prediction: remap clean rows from the memo, recompute the dirty ones.
    nn::Matrix p(g.num_nodes, 1);
    std::vector<int> dirty_nodes;
    for (int v = 0; v < g.num_nodes; ++v) {
      if (dirty[static_cast<std::size_t>(v)] != 0) {
        dirty_nodes.push_back(v);
        continue;
      }
      p.at(v, 0) = memo.prediction.at(old_of_new[static_cast<std::size_t>(v)], 0);
    }
    regressor.forward_rows(h.value(), g, dirty_nodes, p);
    pred = nn::constant(std::move(p));
    st.partial = true;
    st.dirty_nodes = static_cast<int>(dirty_nodes.size());
  }

  memo.checkpoints = std::move(checkpoints);
  memo.has_checkpoints = fits;
  memo.snap = std::move(snap);
  memo.prediction = pred.value();
  memo.embedding = h.value();
  memo.valid = true;
  return {pred, h};
}

}  // namespace dg::gnn
