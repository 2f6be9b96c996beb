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
// CircuitGraph::generation, and on the next query each sweep re-propagates
// only the rows whose inputs changed; every other row is copied bitwise out
// of the memo.
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

namespace dg::gnn {

/// DEEPGATE_INCREMENTAL_MEMO_MB (default 512).
double incremental_memo_cap_mb();

/// Structural snapshot of one graph generation, indexed by node id at
/// snapshot time — everything the dirty-seed diff needs to decide whether a
/// surviving node's forward inputs changed.
struct GraphSnapshot {
  std::uint64_t generation = 0;
  int num_nodes = 0;
  int num_levels = 0;
  std::vector<int> level, pos, type;
  std::vector<std::vector<int>> fanins;                       ///< canonical per-dst order
  std::vector<std::vector<int>> fanouts;                      ///< canonical edge order
  std::vector<std::vector<std::pair<int, int>>> skip_fanins;  ///< (src, level_diff) per dst
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

/// One family's propagation over one graph: h0, then count() sweeps. Built
/// per forward call, so implementations may cache per-graph constants.
/// Sweeps never write a state tensor in place; they replace it, so
/// checkpoints may share tensors with later states.
class Sweeps {
 public:
  explicit Sweeps(const CircuitGraph& g) : g_(g) {}
  virtual ~Sweeps() = default;

  const CircuitGraph& graph() const { return g_; }
  virtual std::size_t count() const = 0;
  /// Which structural differences seed the dirty set.
  virtual DirtySeedOptions dirty_options() const = 0;

  /// Checkpoint 0 (h0). Clean rows of a fresh h0 equal the memoized ones
  /// bitwise: h0 is a per-node function of the cell and the gate type.
  virtual std::vector<nn::Tensor> initial() = 0;
  /// Sweep s over every row.
  virtual void full(std::size_t s, std::vector<nn::Tensor>& states) = 0;
  /// Sweep s over the rows that may differ from the memo. `states` holds
  /// the sweep-entry states and leaves with the post-sweep ones; clean rows
  /// are stitched from `memo_next` (the memoized post-sweep states, in
  /// `snap`'s layout). `dirty` marks nodes whose value may differ from the
  /// memo; a sweep only ever adds to it.
  virtual void partial(std::size_t s, std::vector<nn::Tensor>& states,
                       const std::vector<nn::Tensor>& memo_next, const GraphSnapshot& snap,
                       const std::vector<int>& old_of_new, std::vector<std::uint8_t>& dirty) = 0;
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
  void partial(std::size_t s, std::vector<nn::Tensor>& states,
               const std::vector<nn::Tensor>& memo_next, const GraphSnapshot& snap,
               const std::vector<int>& old_of_new, std::vector<std::uint8_t>& dirty) override;
  nn::Tensor embedding(const std::vector<nn::Tensor>& states) const override;

 private:
  const ModelConfig& cfg_;
  std::vector<const DirectedLayer*> layers_;
  std::vector<nn::Tensor> x_lvl_;
  // Per-layer constants shared by the T sweeps of a recurrent model.
  std::map<const DirectedLayer*, DirectedLayer::Scratch> scratch_;
};

/// The one sweep loop: h0, then every sweep over every row; returns the
/// final embedding. `checkpoints`, when given, receives h0 and the states
/// after every sweep.
nn::Tensor run_sweeps(Sweeps& sweeps,
                      std::vector<std::vector<nn::Tensor>>* checkpoints = nullptr);

/// The one memo driver behind every family's forward_incremental: replays
/// an unchanged generation, otherwise runs each sweep partially against the
/// memo (or fully when there is no usable memo or it would exceed the cap),
/// recomputes predictions of dirty rows only, and refreshes the memo.
/// `state` comes from make_incremental_state (anything else: plain full
/// forward). Must run under nn::NoGradGuard; outputs are bitwise identical
/// to the model's forward_outputs(g).
ForwardOutputs run_incremental(Sweeps& sweeps, const Regressor& regressor, int dim,
                               IncrementalState* state, const std::vector<int>& old_of_new,
                               IncrementalRunStats* stats);

}  // namespace dg::gnn
