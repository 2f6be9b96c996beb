// Mutation-fuzzed equality oracle for incremental inference: a random edit
// stream drives an IncrementalSession and, after every applied edit, the
// session's incremental outputs must be BITWISE identical to rebuilding the
// graph from its defining fields and running the plain forward — for all
// four model families, with the no-grad arena both on and off. A second,
// local edit stream (small cones, mostly clean rows) also checks every memo
// checkpoint against the rebuilt graph's, and a fixed one-node rewire
// checks that the per-query work counters scale with the cone. Plus the
// structural guarantees behind the memo: embed-then-predict on an unchanged
// session performs exactly one level-loop forward, memo hits and misses are
// counted for every family, and an over-budget memo degrades to full
// forwards that still cache their outputs.
#include "core/incremental_session.hpp"

#include "gnn/incremental.hpp"
#include "nn/arena.hpp"
#include "obs/metrics.hpp"
#include "synth/mutate.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>

namespace {

using dg::gnn::CircuitGraph;

/// Appends a random typed DAG of n nodes, with skip edges, to g's defining
/// fields (same shape family as the graph-layer delta tests, independent of
/// the AIG pipeline). Its edges never leave the appended nodes.
void append_random_unit(CircuitGraph& g, int n, dg::util::Rng& rng) {
  const int base = g.num_nodes;
  g.num_nodes += n;
  g.type_id.resize(static_cast<std::size_t>(g.num_nodes));
  g.level.resize(static_cast<std::size_t>(g.num_nodes));
  g.labels.resize(static_cast<std::size_t>(g.num_nodes), 0.5F);
  for (int k = 0; k < n; ++k) {
    const auto vi = static_cast<std::size_t>(base + k);
    if (k < 3 || rng.next_bool(0.2)) {
      g.type_id[vi] = 0;
      g.level[vi] = 0;
      continue;
    }
    const int arity = 1 + static_cast<int>(rng.next_below(2));
    g.type_id[vi] = arity == 1 ? 2 : 1;
    int max_level = -1;
    for (int a = 0; a < arity; ++a) {
      const int src = base + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k)));
      g.edges.emplace_back(src, base + k);
      max_level = std::max(max_level, g.level[static_cast<std::size_t>(src)]);
    }
    g.level[vi] = max_level + 1;
  }
  for (int k = 0; k < n; ++k) {
    const auto vi = static_cast<std::size_t>(base + k);
    if (g.level[vi] < 2 || !rng.next_bool(0.25)) continue;
    const int src = base + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k)));
    const int diff = g.level[vi] - g.level[static_cast<std::size_t>(src)];
    if (diff >= 2) g.skip_edges.push_back({src, base + k, diff});
  }
}

CircuitGraph random_graph(int n, std::uint64_t seed) {
  dg::util::Rng rng(seed);
  CircuitGraph g;
  g.num_types = 3;
  append_random_unit(g, n, rng);
  g.finalize();
  return g;
}

/// From-scratch oracle: rebuild every derived structure from the mutated
/// graph's defining fields, so the reference forward shares nothing with the
/// delta-maintained layout.
CircuitGraph rebuild(const CircuitGraph& g) {
  CircuitGraph fresh;
  fresh.num_nodes = g.num_nodes;
  fresh.num_types = g.num_types;
  fresh.type_id = g.type_id;
  fresh.level = g.level;
  fresh.edges = g.edges;
  fresh.skip_edges = g.skip_edges;
  fresh.labels = g.labels;
  fresh.finalize(g.pe_L);
  return fresh;
}

void expect_bitwise(const std::vector<float>& got, const std::vector<float>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
  }
}

void expect_bitwise(const dg::nn::Matrix& got, const dg::nn::Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (got.size() != 0) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
  }
}

deepgate::Options small_options(dg::gnn::ModelFamily family) {
  deepgate::Options o;
  o.model.dim = 8;
  o.model.iterations = 2;
  o.model.mlp_hidden = 8;
  o.spec.family = family;
  o.spec.agg = dg::gnn::AggKind::kAttention;
  o.spec.use_skip = family == dg::gnn::ModelFamily::kDeepGate;
  return o;
}

/// One fuzzed session: stream random edits, query after every applied edit,
/// compare bitwise against the rebuilt-from-scratch forward.
void fuzz_family(dg::gnn::ModelFamily family, bool arena_on, std::uint64_t seed) {
  SCOPED_TRACE(std::string(dg::gnn::model_family_name(family)) +
               (arena_on ? " arena=on" : " arena=off"));
  const bool arena_before = dg::nn::arena_enabled();
  dg::nn::arena_set_enabled(arena_on);

  const deepgate::Engine engine(small_options(family));
  deepgate::IncrementalSession session(engine, random_graph(30, seed));
  dg::util::Rng rng(seed * 77 + 1);

  int applied = 0;
  for (int step = 0; step < 40 && applied < 16; ++step) {
    const CircuitGraph& g = session.graph();
    dg::synth::MutationContext ctx;
    ctx.num_nodes = g.num_nodes;
    ctx.num_types = g.num_types;
    ctx.type_id = g.type_id;
    ctx.level = g.level;
    ctx.fanout_count = g.fanout_counts();
    const dg::synth::Mutation m = dg::synth::random_mutation(ctx, rng);
    try {
      switch (m.kind) {
        case dg::synth::Mutation::Kind::kInsert:
          session.insert_node(m.type_id, m.fanins);
          break;
        case dg::synth::Mutation::Kind::kDelete:
          session.delete_node(m.node);
          break;
        case dg::synth::Mutation::Kind::kRewire:
          session.rewire_node(m.node, m.fanins);
          break;
      }
      ++applied;
    } catch (const std::invalid_argument&) {
      continue;  // cycle-creating rewire: skipped step
    }

    const CircuitGraph fresh = rebuild(session.graph());
    expect_bitwise(engine.predict_incremental(session), engine.predict_probabilities(fresh),
                   "prediction");
    // Unchanged since the predict: must replay the memo, and still match.
    expect_bitwise(engine.embeddings_incremental(session), engine.embeddings(fresh),
                   "embedding");
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence after applied edit " << applied;
      break;
    }
  }
  EXPECT_GE(applied, 10);
  dg::nn::arena_set_enabled(arena_before);
}

class IncrementalFuzz : public ::testing::TestWithParam<bool> {};

TEST_P(IncrementalFuzz, DeepGateMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDeepGate, GetParam(), 21);
}
TEST_P(IncrementalFuzz, DagRecMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDagRec, GetParam(), 22);
}
TEST_P(IncrementalFuzz, DagConvMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDagConv, GetParam(), 23);
}
TEST_P(IncrementalFuzz, GcnMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kGcn, GetParam(), 24);
}

INSTANTIATE_TEST_SUITE_P(ArenaOnOff, IncrementalFuzz, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ArenaOn" : "ArenaOff";
                         });

/// Many small disconnected units: a local edit's cone stays inside one.
struct BlockGraph {
  CircuitGraph graph;
  std::vector<int> unit;  ///< unit of every node
};

BlockGraph block_graph(int units, int unit_nodes, std::uint64_t seed) {
  dg::util::Rng rng(seed);
  BlockGraph b;
  b.graph.num_types = 3;
  for (int u = 0; u < units; ++u) {
    append_random_unit(b.graph, unit_nodes, rng);
    b.unit.resize(static_cast<std::size_t>(b.graph.num_nodes), u);
  }
  b.graph.finalize();
  return b;
}

const dg::gnn::LevelMemo& memo_of(const deepgate::IncrementalSession& session) {
  const auto* state = dynamic_cast<const dg::gnn::MemoState*>(session.incremental_state());
  if (state == nullptr) throw std::logic_error("session has no LevelMemo");
  return state->memo;
}

/// Every memo checkpoint (all sweeps, all levels) against the checkpoints a
/// full forward over `fresh` records (run_sweeps with checkpoints, the
/// first query of a new session).
void expect_checkpoints_match(const deepgate::Engine& engine,
                              const deepgate::IncrementalSession& session,
                              const CircuitGraph& fresh) {
  deepgate::IncrementalSession ref(engine, fresh);
  engine.predict_incremental(ref);
  const dg::gnn::LevelMemo& got = memo_of(session);
  const dg::gnn::LevelMemo& want = memo_of(ref);
  ASSERT_TRUE(got.has_checkpoints);
  ASSERT_TRUE(want.has_checkpoints);
  ASSERT_EQ(got.checkpoints.size(), want.checkpoints.size());
  for (std::size_t s = 0; s < want.checkpoints.size(); ++s) {
    ASSERT_EQ(got.checkpoints[s].size(), want.checkpoints[s].size()) << "checkpoint " << s;
    for (std::size_t L = 0; L < want.checkpoints[s].size(); ++L) {
      SCOPED_TRACE("checkpoint " + std::to_string(s) + " level " + std::to_string(L));
      expect_bitwise(got.checkpoints[s][L].value(), want.checkpoints[s][L].value(), "checkpoint");
    }
  }
}

/// A local edit stream shaped like a real editing session: gates appended
/// at their level's last position, removed last-in-first-out, and fanins
/// rewired to another node of the same unit and level, so no edit moves
/// another node's (level, position) and the dirty cone stays in one unit.
/// Original nodes keep their ids and levels throughout. One gate goes on a
/// new top level and comes off again (a level-count change both ways).
/// After every query, the outputs and every memo checkpoint must equal a
/// rebuilt graph's bitwise.
void fuzz_local_edits(dg::gnn::ModelFamily family, bool arena_on, std::uint64_t seed) {
  SCOPED_TRACE(std::string(dg::gnn::model_family_name(family)) +
               (arena_on ? " arena=on" : " arena=off"));
  const bool arena_before = dg::nn::arena_enabled();
  dg::nn::arena_set_enabled(arena_on);

  const BlockGraph block = block_graph(20, 15, seed);
  const CircuitGraph& g0 = block.graph;
  std::map<std::pair<int, int>, std::vector<int>> peers;  // (unit, level) -> nodes
  std::vector<int> ands;
  for (int v = 0; v < g0.num_nodes; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    peers[{block.unit[vi], g0.level[vi]}].push_back(v);
  }
  const std::vector<std::vector<int>> fanins0 = g0.fanin_lists();
  for (int v = 0; v < g0.num_nodes; ++v)
    if (fanins0[static_cast<std::size_t>(v)].size() == 2) ands.push_back(v);
  ASSERT_FALSE(ands.empty());

  const deepgate::Engine engine(small_options(family));
  deepgate::IncrementalSession session(engine, g0);
  engine.predict_incremental(session);
  dg::util::Rng rng(seed * 31 + 7);
  std::vector<int> inserted;
  double dirty_share = 0.0;
  int queries = 0;
  for (int step = 0; step < 30; ++step) {
    const CircuitGraph& g = session.graph();
    const double pick = rng.next_double();
    if (step == 10) {
      // New top level: a NOT on a node of the current top level.
      const int top = g.nodes_at_level[static_cast<std::size_t>(g.num_levels - 1)].front();
      const int levels_before = g.num_levels;
      inserted.push_back(session.insert_node(2, {top}));
      EXPECT_EQ(session.graph().num_levels, levels_before + 1);
    } else if ((step == 11 || pick < 0.25) && !inserted.empty()) {
      const int levels_before = g.num_levels;
      session.delete_node(inserted.back());
      inserted.pop_back();
      if (step == 11) {
        EXPECT_EQ(session.graph().num_levels, levels_before - 1);
      }
    } else if (pick < 0.6) {
      const int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(g0.num_nodes)));
      const auto ui = static_cast<std::size_t>(u);
      const std::vector<int>& same = peers.at({block.unit[ui], g0.level[ui]});
      const int w = same[rng.next_below(same.size())];
      if (w != u && rng.next_bool()) {
        inserted.push_back(session.insert_node(1, {u, w}));
      } else {
        inserted.push_back(session.insert_node(2, {u}));
      }
    } else {
      const int v = ands[rng.next_below(ands.size())];
      std::vector<int> fanins = g.fanin_lists()[static_cast<std::size_t>(v)];
      const std::size_t slot = rng.next_below(2);
      const auto old = static_cast<std::size_t>(fanins[slot]);
      const std::vector<int>& same = peers.at({block.unit[old], g0.level[old]});
      const int next = same[rng.next_below(same.size())];
      if (next == fanins[0] || next == fanins[1]) continue;  // no-op draw
      fanins[slot] = next;
      session.rewire_node(v, fanins);  // same level as the old fanin: acyclic
    }

    const CircuitGraph fresh = rebuild(session.graph());
    expect_bitwise(engine.predict_incremental(session), engine.predict_probabilities(fresh),
                   "prediction");
    const dg::gnn::IncrementalRunStats stats = session.last_stats();
    EXPECT_TRUE(stats.partial);
    dirty_share += static_cast<double>(stats.dirty_nodes) / session.graph().num_nodes;
    ++queries;
    expect_checkpoints_match(engine, session, fresh);
    expect_bitwise(engine.embeddings_incremental(session), engine.embeddings(fresh),
                   "embedding");
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence at step " << step;
      break;
    }
  }
  EXPECT_GE(queries, 20);
  // The stream is local: the in-place path must mostly keep clean rows.
  EXPECT_LT(dirty_share / std::max(queries, 1), 0.15);
  dg::nn::arena_set_enabled(arena_before);
}

class LocalEditFuzz : public ::testing::TestWithParam<bool> {};

TEST_P(LocalEditFuzz, DeepGateCheckpointsMatchFromScratch) {
  fuzz_local_edits(dg::gnn::ModelFamily::kDeepGate, GetParam(), 41);
}
TEST_P(LocalEditFuzz, DagRecCheckpointsMatchFromScratch) {
  fuzz_local_edits(dg::gnn::ModelFamily::kDagRec, GetParam(), 42);
}
TEST_P(LocalEditFuzz, DagConvCheckpointsMatchFromScratch) {
  fuzz_local_edits(dg::gnn::ModelFamily::kDagConv, GetParam(), 43);
}
TEST_P(LocalEditFuzz, GcnCheckpointsMatchFromScratch) {
  fuzz_local_edits(dg::gnn::ModelFamily::kGcn, GetParam(), 44);
}

INSTANTIATE_TEST_SUITE_P(ArenaOnOff, LocalEditFuzz, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ArenaOn" : "ArenaOff";
                         });

/// Fixed unit for the cone-work counters: PIs p0 p1 p2; a = AND(p0, p1),
/// b = AND(p1, p2), e = AND(p0, p2) on level 1; c = AND(a, b); d = NOT(c).
CircuitGraph fixed_blocks(int units) {
  CircuitGraph g;
  g.num_types = 3;
  for (int u = 0; u < units; ++u) {
    const int o = g.num_nodes;
    g.type_id.insert(g.type_id.end(), {0, 0, 0, 1, 1, 1, 1, 2});
    g.level.insert(g.level.end(), {0, 0, 0, 1, 1, 1, 2, 3});
    for (const auto& [src, dst] : std::vector<std::pair<int, int>>{
             {0, 3}, {1, 3}, {1, 4}, {2, 4}, {0, 5}, {2, 5}, {3, 6}, {4, 6}, {6, 7}})
      g.edges.emplace_back(o + src, o + dst);
    g.num_nodes += 8;
  }
  g.labels.assign(static_cast<std::size_t>(g.num_nodes), 0.5F);
  g.finalize();
  return g;
}

// Per-query work scales with the cone, not the graph: rewiring c's fanin b
// to e seeds exactly {c, b, e} (c's fanins, b's and e's fanouts changed),
// so exactly three h0 rows are drawn, and the rows the level step updates
// stay within sweeps x dirty nodes — the same count at 10 units and 40.
TEST(IncrementalWork, OneNodeRewireScalesWithTheCone) {
  const bool metrics_before = dg::obs::metrics_enabled();
  dg::obs::metrics_set_enabled(true);
  const dg::obs::Counter& h0_counter = dg::obs::counter("gnn.incremental.h0_rows");
  const dg::obs::Counter& stepped_counter = dg::obs::counter("gnn.incremental.rows_stepped");
  const deepgate::Options options = small_options(dg::gnn::ModelFamily::kDeepGate);
  const int sweeps = 2 * options.model.iterations;  // forward + reversed per iteration
  const deepgate::Engine engine(options);

  std::vector<int> stepped;
  for (const int units : {10, 40}) {
    SCOPED_TRACE(std::to_string(units) + " units");
    deepgate::IncrementalSession session(engine, fixed_blocks(units));
    engine.predict_incremental(session);
    const int c = 8 * 3 + 6;  // node c of unit 3
    session.rewire_node(c, {c - 3, c - 1});  // (a, b) -> (a, e)

    const std::uint64_t h0_before = h0_counter.value();
    const std::uint64_t stepped_before = stepped_counter.value();
    const CircuitGraph fresh = rebuild(session.graph());
    expect_bitwise(engine.predict_incremental(session), engine.predict_probabilities(fresh),
                   "prediction");
    const dg::gnn::IncrementalRunStats st = session.last_stats();
    ASSERT_TRUE(st.partial);
    EXPECT_EQ(st.h0_rows, 3);
    EXPECT_GT(st.rows_stepped, 0);
    EXPECT_LE(st.dirty_nodes, 8);  // inside the edited unit
    EXPECT_LE(st.rows_stepped, sweeps * st.dirty_nodes);
    EXPECT_EQ(h0_counter.value() - h0_before, 3U);
    EXPECT_EQ(stepped_counter.value() - stepped_before,
              static_cast<std::uint64_t>(st.rows_stepped));
    stepped.push_back(st.rows_stepped);
  }
  EXPECT_EQ(stepped[0], stepped[1]);
  dg::obs::metrics_set_enabled(metrics_before);
}

// The memo driver counts every query that reaches a memo: a replayed
// generation is a hit, anything that propagates is a miss — for the GCN
// family as much as for the layered ones.
TEST(IncrementalMemo, CountsHitsAndMisses) {
  const bool metrics_before = dg::obs::metrics_enabled();
  dg::obs::metrics_set_enabled(true);
  const dg::obs::Counter& hits = dg::obs::counter("gnn.memo.hits");
  const dg::obs::Counter& misses = dg::obs::counter("gnn.memo.misses");
  for (const auto family : {dg::gnn::ModelFamily::kGcn, dg::gnn::ModelFamily::kDeepGate}) {
    SCOPED_TRACE(dg::gnn::model_family_name(family));
    const deepgate::Engine engine(small_options(family));
    deepgate::IncrementalSession session(engine, random_graph(25, 6));

    const std::uint64_t h0 = hits.value();
    const std::uint64_t m0 = misses.value();
    engine.predict_incremental(session);     // first query: full forward
    engine.embeddings_incremental(session);  // unchanged: replay
    session.insert_node(1, {0, 1});
    engine.predict_incremental(session);  // edited: partial
    EXPECT_EQ(hits.value(), h0 + 1);
    EXPECT_EQ(misses.value(), m0 + 2);
  }
  dg::obs::metrics_set_enabled(metrics_before);
}

// DEEPGATE_INCREMENTAL_MEMO_MB=0: no graph fits the checkpoint budget, so an
// edit always costs a full forward, never the partial path — but outputs
// are still cached, so an unchanged re-query replays them.
TEST(IncrementalMemo, OverCapRunsFullForwardsAndStillReplays) {
  struct CapGuard {
    CapGuard() { ::setenv("DEEPGATE_INCREMENTAL_MEMO_MB", "0", 1); }
    ~CapGuard() { ::unsetenv("DEEPGATE_INCREMENTAL_MEMO_MB"); }
  } guard;

  for (const auto family : {dg::gnn::ModelFamily::kDagRec, dg::gnn::ModelFamily::kGcn}) {
    SCOPED_TRACE(dg::gnn::model_family_name(family));
    const deepgate::Engine engine(small_options(family));
    deepgate::IncrementalSession session(engine, random_graph(25, 8));
    engine.predict_incremental(session);

    for (int edit = 0; edit < 3; ++edit) {
      session.insert_node(1, {edit, edit + 1});
      const auto c0 = dg::gnn::forward_counters();
      const std::vector<float> probs = engine.predict_incremental(session);
      const auto c1 = dg::gnn::forward_counters();
      EXPECT_EQ(c1.full, c0.full + 1);
      EXPECT_EQ(c1.partial, c0.partial);
      EXPECT_FALSE(session.last_stats().partial);
      EXPECT_FALSE(session.last_stats().memo_hit);

      const dg::nn::Matrix emb = engine.embeddings_incremental(session);
      const auto c2 = dg::gnn::forward_counters();
      EXPECT_EQ(c2.full, c1.full);
      EXPECT_EQ(c2.partial, c1.partial);
      EXPECT_TRUE(session.last_stats().memo_hit);

      const CircuitGraph fresh = rebuild(session.graph());
      expect_bitwise(probs, engine.predict_probabilities(fresh), "over-cap prediction");
      expect_bitwise(emb, engine.embeddings(fresh), "over-cap embedding");
    }
  }
}

// The PR 5 residual, closed: embed-then-predict on an unchanged session runs
// exactly ONE level-loop propagation (the embed's), the predict replays the
// memo. Asserted structurally via the process-wide forward counters.
TEST(IncrementalForwardCount, EmbedThenPredictUnchangedIsOneForward) {
  const deepgate::Engine engine(small_options(dg::gnn::ModelFamily::kDeepGate));
  deepgate::IncrementalSession session(engine, random_graph(30, 9));

  const auto c0 = dg::gnn::forward_counters();
  const dg::nn::Matrix emb = engine.embeddings_incremental(session);
  const auto c1 = dg::gnn::forward_counters();
  EXPECT_EQ(c1.full, c0.full + 1);
  EXPECT_EQ(c1.partial, c0.partial);

  const std::vector<float> probs = engine.predict_incremental(session);
  const auto c2 = dg::gnn::forward_counters();
  EXPECT_EQ(c2.full, c1.full);  // memo hit: zero propagation
  EXPECT_EQ(c2.partial, c1.partial);
  EXPECT_TRUE(session.last_stats().memo_hit);
  EXPECT_EQ(static_cast<int>(probs.size()), session.graph().num_nodes);
  EXPECT_EQ(emb.rows(), session.graph().num_nodes);

  // An edit flips the next query to the cone-limited partial path.
  session.insert_node(1, {0, 1});
  engine.predict_incremental(session);
  const auto c3 = dg::gnn::forward_counters();
  EXPECT_EQ(c3.full, c2.full);
  EXPECT_EQ(c3.partial, c2.partial + 1);
  EXPECT_TRUE(session.last_stats().partial);
  EXPECT_GT(session.last_stats().dirty_nodes, 0);
  EXPECT_LT(session.last_stats().dirty_nodes, session.graph().num_nodes);
}

TEST(IncrementalSession, RejectsForeignAndDegenerateGraphs) {
  const deepgate::Engine a(small_options(dg::gnn::ModelFamily::kDeepGate));
  const deepgate::Engine b(small_options(dg::gnn::ModelFamily::kDeepGate));
  EXPECT_THROW(deepgate::IncrementalSession(a, CircuitGraph{}), std::invalid_argument);

  const CircuitGraph g1 = random_graph(10, 3);
  const CircuitGraph g2 = random_graph(10, 4);
  EXPECT_THROW(deepgate::IncrementalSession(a, CircuitGraph::merge({&g1, &g2})),
               std::invalid_argument);

  deepgate::IncrementalSession session(a, random_graph(10, 3));
  EXPECT_THROW(b.predict_incremental(session), std::invalid_argument);
  EXPECT_THROW(b.embeddings_incremental(session), std::invalid_argument);
}

}  // namespace
