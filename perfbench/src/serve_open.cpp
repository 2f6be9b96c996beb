// serve_open: independent clients on a fixed-interval open loop through
// serve::Server::try_submit. The rate sits well under the batching knee of
// two lanes, so every request pays admission, the batch window, one
// single-graph forward and fulfilment.
#include "common.hpp"
#include "designs.hpp"

#include "nn/arena.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>

namespace pb {

namespace {

/// Requests per second: about 40% of what two lanes sustain on these
/// single-graph batches, and an interval far longer than the 2 ms batch
/// window, so batches stay at one graph.
constexpr double kRate = 60.0;
/// Labels for prob_error: random patterns simulated per served circuit.
constexpr std::size_t kPatterns = 20000;
/// A request that finishes later than this (from when it was due) misses.
constexpr double kLatencyLimitMs = 250.0;

struct ServeState {
  std::unique_ptr<deepgate::Engine> engine;
  std::vector<deepgate::CircuitGraph> graphs;
  std::vector<std::vector<float>> ref_probs;
  std::vector<dg::nn::Matrix> ref_embs;
  std::unique_ptr<deepgate::serve::Server> server;  // last: drains and stops first
};

std::unique_ptr<ServeState> make_state(const Args& args) {
  auto st = std::make_unique<ServeState>();
  st->engine = load_engine(args.checkpoint);
  std::vector<Design> designs = serve_designs();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    st->graphs.push_back(deepgate::prepare(designs[i].aig, kPatterns, args.seed * 1000 + i));
    st->ref_probs.push_back(st->engine->predict_probabilities(st->graphs.back()));
    st->ref_embs.push_back(st->engine->embeddings(st->graphs.back()));
  }
  deepgate::serve::ServerOptions opts;
  opts.lanes = kComputeThreads;
  st->server = std::make_unique<deepgate::serve::Server>(*st->engine, opts);
  // Warm-up: one request per circuit fills each lane's arena.
  std::vector<std::future<deepgate::serve::Response>> warm;
  for (const auto& g : st->graphs) warm.push_back(st->server->submit({&g, true}));
  for (auto& f : warm) f.get();
  return st;
}

struct Op {
  std::size_t graph = 0;
  bool want_embedding = false;
};

/// Each circuit equally often (seeded shuffles of the pool), and exactly one
/// request in every four asks for the embedding.
std::vector<Op> make_ops(std::uint64_t seed, long long count, std::size_t pool) {
  const std::vector<std::size_t> order =
      balanced_order(seed ^ 0x5e12e0c0ffeeULL, static_cast<std::size_t>(count), pool);
  dg::util::Rng rng(seed ^ 0xe3bedULL);
  std::vector<Op> ops(order.size());
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].graph = order[i];
  for (std::size_t i = 0; i < ops.size(); i += 4)
    ops[std::min(ops.size() - 1, i + rng.next_below(4))].want_embedding = true;
  return ops;
}

struct Layer {
  std::vector<double> submit_us, queue_ms, service_ms, gen_lag_ms, batch_graphs;
  long long overloaded = 0;
  double lane_busy_s = 0.0;               ///< service time, shared out over each batch
  double abs_err = 0.0, err_nodes = 0.0;  ///< served vs simulated labels
};

struct Inflight {
  std::size_t op = 0;
  std::uint64_t id = 0;
  Clock::time_point due, submit_start, submit_end;
  std::future<deepgate::serve::Response> future;
};

/// One pass over the op list. Each block is its own stretch of the
/// fixed-interval schedule, drained before the next block starts, so a
/// block can be measured again on its own.
Pass run_pass(ServeState& st, const std::vector<Op>& ops, double retry_budget_s, Result& r, Layer& layer) {
  using namespace std::chrono;
  const auto interval = duration_cast<Clock::duration>(duration<double>(1.0 / kRate));

  Pass pass = run_blocks(static_cast<long long>(ops.size()), retry_budget_s,
                         [&](std::size_t lo, std::size_t hi, bool first, Block& b) {
    std::deque<Inflight> inflight;
    Clock::time_point last_done;
    const auto collect = [&](Inflight& f) {
      Clock::time_point done = f.submit_end;
      try {
        const deepgate::serve::Response resp = f.future.get();
        const Op& op = ops[f.op];
        const double latency_s = seconds_between(f.due, f.submit_end) + resp.latency_seconds;
        const auto to_tp = [&](double s) {
          return f.submit_end + duration_cast<Clock::duration>(duration<double>(s));
        };
        done = to_tp(resp.latency_seconds);
        bool ok = r.check(bitwise_equal(resp.probabilities, st.ref_probs[op.graph]),
                          "serve_open: served probabilities differ from predict_probabilities");
        if (op.want_embedding)
          ok = r.check(bitwise_equal(resp.embedding, st.ref_embs[op.graph]),
                       "serve_open: served embedding differs from Engine::embeddings") && ok;
        if (ok) {
          ++b.completed;
          b.latency_ms.push_back(latency_s * 1e3);
          if (latency_s * 1e3 <= kLatencyLimitMs) ++b.good;
        } else if (first) {
          ++r.failed;
        }
        if (first) {
          if (ok) {
            const std::vector<float>& labels = st.graphs[op.graph].labels;
            for (std::size_t v = 0; v < labels.size(); ++v)
              layer.abs_err += std::abs(static_cast<double>(resp.probabilities[v]) - labels[v]);
            layer.err_nodes += static_cast<double>(labels.size());
          }
          layer.queue_ms.push_back(resp.queue_seconds * 1e3);
          layer.service_ms.push_back(resp.service_seconds * 1e3);
          layer.batch_graphs.push_back(static_cast<double>(resp.batch_graphs));
          layer.lane_busy_s +=
              resp.service_seconds / static_cast<double>(std::max<std::size_t>(1, resp.batch_graphs));
        }
        span("serve.queue", f.submit_end, to_tp(resp.queue_seconds), f.id);
        span("serve.service", to_tp(resp.queue_seconds), done, f.id);
      } catch (const std::exception& e) {
        r.check(false, std::string("serve_open: request failed: ") + e.what());
        if (first) ++r.failed;
      }
      span("serve.submit", f.submit_start, f.submit_end, f.id);
      span("op", f.due, done, f.id);
      last_done = std::max(last_done, done);
    };

    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now() + milliseconds(5);
    for (std::size_t i = lo; i < hi; ++i) {
      const Clock::time_point due = t0 + interval * static_cast<long long>(i - lo);
      while (!inflight.empty() &&
             inflight.front().future.wait_until(due) == std::future_status::ready) {
        collect(inflight.front());
        inflight.pop_front();
      }
      std::this_thread::sleep_until(due);
      Inflight f;
      f.op = i;
      f.id = dg::obs::next_trace_id();
      f.due = due;
      f.submit_start = Clock::now();
      const auto status = st.server->try_submit(
          {&st.graphs[ops[i].graph], ops[i].want_embedding}, f.future);
      f.submit_end = Clock::now();
      ++b.attempted;
      if (first) {
        layer.gen_lag_ms.push_back(seconds_between(due, f.submit_start) * 1e3);
        layer.submit_us.push_back(seconds_between(f.submit_start, f.submit_end) * 1e6);
      }
      if (status == deepgate::serve::SubmitStatus::kAccepted) {
        inflight.push_back(std::move(f));
      } else if (first) {
        ++layer.overloaded;
        ++r.failed;
      }
    }
    for (Inflight& f : inflight) collect(f);
    b.cpu_s = process_cpu_seconds() - cpu0;
    b.wall_s = seconds_between(t0, std::max(last_done, t0));
  });
  pass.open_loop = true;
  return pass;
}

}  // namespace

void run_serve_open(const Args& args, Result& r) {
  double setup_s = 0.0;
  std::unique_ptr<ServeState> st = timed_setup(args, r, setup_s, [&] { return make_state(args); });
  if (!st) return;
  const std::vector<Op> ops = make_ops(args.seed, args.op_count(kRate), st->graphs.size());
  r.note("rate_per_s", kRate);
  r.note("latency_limit_ms", kLatencyLimitMs);

  Layer layer;
  const Pass pass = run_pass(*st, ops, args.retry_budget_s(), r, layer);
  r.attempted += pass.attempted;
  r.note("gen_lag_ms_p95", quantile(layer.gen_lag_ms, 0.95));
  r.note("batch_graphs_mean", mean(layer.batch_graphs));
  if (!args.trace) {
    emit_end_to_end(r, setup_s, pass,
                    layer.err_nodes > 0.0 ? layer.abs_err / layer.err_nodes : 0.0);
    return;
  }

  Layer tl;
  const std::size_t allocs0 = dg::nn::arena_stats().heap_allocs;
  dg::obs::trace_set_enabled(true);
  const Pass traced = run_pass(*st, ops, 0.0, r, tl);
  dg::obs::trace_set_enabled(false);
  const std::size_t allocs = dg::nn::arena_stats().heap_allocs - allocs0;
  r.attempted += traced.attempted;

  r.set("serve.submit_us_p95", quantile(tl.submit_us, 0.95), "us");
  r.set("serve.queue_ms_p50", quantile(tl.queue_ms, 0.5), "ms");
  r.set("serve.service_ms_p50", quantile(tl.service_ms, 0.5), "ms");
  r.set("serve.service_ms_p95", quantile(tl.service_ms, 0.95), "ms");
  r.set("serve.batch_graphs_mean", mean(tl.batch_graphs), "count");
  r.set("serve.overloaded", static_cast<double>(tl.overloaded), "count");
  // Lane time of the traced pass only, over the lanes' capacity in it.
  r.set("serve.lanes.utilization",
        traced.wall_s > 0.0 ? tl.lane_busy_s / (traced.wall_s * kComputeThreads) : 0.0, "frac");
  r.set("bench.gen_lag_ms_p95", quantile(tl.gen_lag_ms, 0.95), "ms");
  r.set("nn.arena.heap_allocs_per_op",
        static_cast<double>(allocs) / static_cast<double>(std::max<long long>(1, traced.completed)),
        "count");
  emit_common_layers(r, pass, traced);
  export_trace(args, self_times_ms_per_op(traced.attempted));
}

}  // namespace pb
