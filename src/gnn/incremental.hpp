// Sweep sequences and cone-limited incremental inference on mutating
// circuits.
//
// Every model family's propagation is a fixed sequence of sweeps over a
// checkpoint: the per-level state tensors of a DirectedLayer family, or one
// whole-graph "level" for GCN. A family describes its sequence as a Sweeps
// object; run_sweeps() is the one loop every full forward runs, and
// run_incremental() is the one memo driver behind every forward_incremental.
//
// The level-by-level propagation means an edit's influence on the forward
// state is confined to the fan-out cone of the touched nodes. The driver
// memoizes the checkpoints after every sweep of a query, keyed by
// CircuitGraph::generation, and on the next query the memo's checkpoints
// become the working state: they are brought into the current layout, and
// each sweep re-propagates only the rows whose inputs changed, writing them
// in place. Every other row is left where it is, so a partial query's cost
// scales with the dirty cone (IncrementalRunStats::h0_rows/rows_stepped).
//
// Ownership and aliasing: run_incremental owns the checkpoints, and nothing
// outside them holds a checkpoint tensor. A full forward's checkpoints
// share one tensor across consecutive sweeps that leave a level unchanged,
// so every in-place write goes through writable(), which first gives the
// written slot a private copy when another handle shares its node
// (copy-on-write). A level a sweep only carries is left alone when its
// entry and post-sweep slots are the same tensor (its entry rows are
// already the post-sweep ones); otherwise its dirty rows are copied across.
// A batch that flips between empty and non-empty across generations marks
// every node of its level dirty, so a slot shared in the memo's generation
// but stepped in this one is rewritten whole, never half-shared.
//
// Identity across edits is positional: node v of the current graph
// corresponds to node old_of_new[v] of the memoized generation (-1 = new
// node). core::IncrementalSession maintains that map across its delta ops.
//
// Knob: DEEPGATE_INCREMENTAL_MEMO_MB caps the estimated checkpoint footprint
// per session (default 512 MiB). An over-cap graph falls back to full
// forwards but still caches the outputs, so an unchanged re-query (the
// embed-then-predict sequence) never pays a second propagation.
//
// Thread affinity (why LevelMemo carries no util::Mutex): a LevelMemo is
// owned by one core::IncrementalSession, and a session serves one client's
// edit stream from one thread at a time — the same contract as ShardStream.
// There is no process-wide state here. Cross-session sharing would need a
// lock AND a story for generation counters; it is deliberately out of
// contract.
#pragma once

#include "gnn/model_common.hpp"

#include <map>
#include <span>

namespace dg::gnn {

/// DEEPGATE_INCREMENTAL_MEMO_MB (default 512).
double incremental_memo_cap_mb();

/// Structural snapshot of one graph generation, indexed by node id at
/// snapshot time — everything the dirty-seed diff needs to decide whether a
/// surviving node's forward inputs changed.
struct GraphSnapshot {
  /// Per-node lists in one flat array: node v's list is
  /// items[start[v], start[v + 1]).
  template <class T>
  struct Adjacency {
    std::vector<int> start;
    std::vector<T> items;
    std::span<const T> of(int v) const {
      const auto b = static_cast<std::size_t>(start[static_cast<std::size_t>(v)]);
      const auto e = static_cast<std::size_t>(start[static_cast<std::size_t>(v) + 1]);
      return {items.data() + b, e - b};
    }
  };

  std::uint64_t generation = 0;
  int num_nodes = 0;
  int num_levels = 0;
  std::vector<int> level, pos, type;
  Adjacency<int> fanins;                       ///< canonical per-dst order
  Adjacency<int> fanouts;                      ///< canonical edge order
  Adjacency<std::pair<int, int>> skip_fanins;  ///< (src, level_diff) per dst
  // Per-level batch-emptiness flags: an empty batch carries entry states
  // through a level, a non-empty one GRU-updates every row — so a flag flip
  // changes a node's update pattern even when its own edges are untouched.
  std::vector<std::uint8_t> fwd_nonempty, fwd_skip_nonempty, rev_nonempty;

  void capture(const CircuitGraph& g);
};

/// Which structural differences make a node dirty. Layered families track
/// layout (levels/positions drive both batch membership and the random-h0
/// cells) and, when they run reversed sweeps, fanouts; the undirected GCN
/// tracks fanins+fanouts but no layout.
struct DirtySeedOptions {
  bool track_layout = true;
  bool track_reverse = true;
};

/// Memoized checkpoints of one query: checkpoints[0] is h0,
/// checkpoints[s + 1] the states after sweep s, all in the snapshot
/// generation's layout. `has_checkpoints` is false when the estimated
/// footprint exceeded the memo cap — outputs are still cached so unchanged
/// re-queries stay free.
struct LevelMemo {
  bool valid = false;
  bool has_checkpoints = false;
  GraphSnapshot snap;
  std::vector<std::vector<nn::Tensor>> checkpoints;
  nn::Matrix prediction;  ///< N x 1
  nn::Matrix embedding;   ///< N x d
};

/// The IncrementalState of every model family.
class MemoState final : public IncrementalState {
 public:
  LevelMemo memo;
};

/// The value of `t`, ready for an in-place write: `t` first takes a private
/// copy when another handle shares its node (copy-on-write).
nn::Matrix& writable(nn::Tensor& t);

/// One family's propagation over one graph: h0, then count() sweeps. Built
/// per forward call, so implementations may cache per-graph constants.
/// A full run replaces state tensors and never writes one in place, so its
/// checkpoints may share tensors across sweeps; a partial run writes the
/// checkpoints in place, through writable() only.
class Sweeps {
 public:
  explicit Sweeps(const CircuitGraph& g) : g_(g) {}
  virtual ~Sweeps() = default;

  const CircuitGraph& graph() const { return g_; }
  virtual std::size_t count() const = 0;
  /// Which structural differences seed the dirty set.
  virtual DirtySeedOptions dirty_options() const = 0;

  /// Checkpoint 0 (h0).
  virtual std::vector<nn::Tensor> initial() = 0;
  /// Sweep s over every row.
  virtual void full(std::size_t s, std::vector<nn::Tensor>& states) = 0;
  /// Brings the memoized `checkpoints` (the previous generation's, mapped
  /// by `old_of_new`) into the current layout, so every clean row holds its
  /// memoized value at the node's current cell, and writes a fresh h0 into
  /// the rows of the `dirty` seeds of checkpoint 0. Clean rows of h0 need
  /// no redraw: h0 is a per-node function of the cell and the gate type.
  /// Returns the number of h0 rows written.
  virtual int adopt(std::vector<std::vector<nn::Tensor>>& checkpoints,
                    const std::vector<int>& old_of_new,
                    const std::vector<std::uint8_t>& dirty) = 0;
  /// Sweep s in place over the rows that may differ from the memo: `entry`
  /// is checkpoint s, complete for this generation; `next` is checkpoint
  /// s + 1, correct on clean rows, and leaves complete. `dirty` marks nodes
  /// whose value may differ from the memo; a sweep only ever adds to it.
  /// Returns the number of rows the step updated.
  virtual int partial(std::size_t s, const std::vector<nn::Tensor>& entry,
                      std::vector<nn::Tensor>& next, std::vector<std::uint8_t>& dirty) = 0;
  /// Final N x d node-order embedding.
  virtual nn::Tensor embedding(const std::vector<nn::Tensor>& states) const = 0;

 protected:
  const CircuitGraph& g_;
};

/// The sweep sequence of every DirectedLayer family: per-level states, one
/// DirectedLayer per sweep ([fwd, rev] x T for the recurrent models, the
/// stacked layers for DAG-ConvGNN).
class LayeredSweeps final : public Sweeps {
 public:
  LayeredSweeps(const CircuitGraph& g, const ModelConfig& cfg,
                std::vector<const DirectedLayer*> layers);

  std::size_t count() const override { return layers_.size(); }
  DirtySeedOptions dirty_options() const override;
  std::vector<nn::Tensor> initial() override;
  void full(std::size_t s, std::vector<nn::Tensor>& states) override;
  int adopt(std::vector<std::vector<nn::Tensor>>& checkpoints, const std::vector<int>& old_of_new,
            const std::vector<std::uint8_t>& dirty) override;
  int partial(std::size_t s, const std::vector<nn::Tensor>& entry, std::vector<nn::Tensor>& next,
              std::vector<std::uint8_t>& dirty) override;
  nn::Tensor embedding(const std::vector<nn::Tensor>& states) const override;

 private:
  /// One batch kind (fwd, fwd_skip or rev) indexed for partial sweeps,
  /// built at most once per query so that a sweep's bookkeeping scales
  /// with the dirty rows, not the edges: per stepped level, every
  /// destination row's edges in stored order, and per node, the nodes
  /// whose stepped rows read it as a message source.
  struct BatchIndex {
    std::vector<std::vector<int>> row_start;  ///< [level] num_dst + 1 offsets
    std::vector<std::vector<int>> row_edges;  ///< [level] edge indices by row
    GraphSnapshot::Adjacency<int> readers;
  };
  const BatchIndex& batch_index(const DirectedLayer& layer);

  const ModelConfig& cfg_;
  std::vector<const DirectedLayer*> layers_;
  std::vector<nn::Tensor> x_lvl_;
  // Per-layer constants shared by the T sweeps of a recurrent model.
  std::map<const DirectedLayer*, DirectedLayer::Scratch> scratch_;
  std::map<const LevelBatch*, BatchIndex> index_;  ///< keyed by the kind's level-0 batch
};

/// The one sweep loop: h0, then every sweep over every row; returns the
/// final embedding. `checkpoints`, when given, receives h0 and the states
/// after every sweep.
nn::Tensor run_sweeps(Sweeps& sweeps,
                      std::vector<std::vector<nn::Tensor>>* checkpoints = nullptr);

/// The one memo driver behind every family's forward_incremental: replays
/// an unchanged generation, otherwise updates the memo's checkpoints in
/// place sweep by sweep (or runs every sweep fully when there is no usable
/// memo or it would exceed the cap), recomputes predictions of dirty rows
/// only, and refreshes the memo. A partial run allocates no N x d matrix
/// besides the returned embedding and the memo's copy of it (and GCN's
/// checkpoint remap after node ids shifted).
/// `state` comes from make_incremental_state (anything else: plain full
/// forward). Must run under nn::NoGradGuard; outputs are bitwise identical
/// to the model's forward_outputs(g).
ForwardOutputs run_incremental(Sweeps& sweeps, const Regressor& regressor, int dim,
                               IncrementalState* state, const std::vector<int>& old_of_new,
                               IncrementalRunStats* stats);

}  // namespace dg::gnn
