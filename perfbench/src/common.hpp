// Shared pieces of the repo benchmark: arguments, the result record, the
// host meters (wall, process CPU, /proc/stat steal), percentile helpers,
// benchmark-side trace spans, and the checkpoint gate.
//
// Every workload runs a fixed list of operations that is a pure function of
// (workload, --seed, --seconds): the same arguments give the same inputs and
// the same op count, so prob_error and every count repeat exactly.
#pragma once

#include "core/deepgate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Compute threads every workload runs with: 2 pool lanes and 2 serve lanes.
/// On a 4-core host a 4-thread pool measured 39–57 ops/s on labelling where
/// 2 threads gave 38–39; the generator and batcher threads sleep most of the
/// time, so the process stays within the cores.
constexpr int kComputeThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool setup_only = false;      ///< stop after set-up and report setup_s alone
  long long ops = 0;            ///< 0 = the workload's rate x seconds
  std::string checkpoint;       ///< trained model, verified against <path>.fnv1a64
  std::string out_dir;          ///< trace export and provenance file
  Clock::time_point start;      ///< process entry (set-up is timed from here)

  /// The op count for a workload whose calibrated rate is `per_second`.
  long long op_count(double per_second) const;
  /// Wall time the untraced pass may spend re-running blocks.
  double retry_budget_s() const;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Extra provenance/validity fields: name -> rendered JSON value.
  std::map<std::string, std::string> provenance;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, const std::vector<double>& values);
  /// Record an output check; a failure marks the run incorrect and is
  /// reported on stderr.
  bool check(bool ok, const std::string& what);
};

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double seconds_between(Clock::time_point a, Clock::time_point b);

/// `count` indices into a pool of `pool` items: each item equally often, in
/// seeded shuffles of the pool (Fisher-Yates, reset every `pool` draws).
std::vector<std::size_t> balanced_order(std::uint64_t seed, std::size_t count, std::size_t pool);

// -- Host meters --------------------------------------------------------------

double process_cpu_seconds();

/// Aggregate `cpu` line of /proc/stat, in clock ticks.
struct CpuTicks {
  unsigned long long busy = 0;   ///< user, nice, system, irq, softirq and steal
  unsigned long long steal = 0;
  unsigned long long total = 0;
  static CpuTicks now();
};

/// Wall time and host steal over one measured span. Steal is the time the
/// hypervisor ran something else while a vCPU wanted to run; it accrues
/// only on busy vCPUs, so its share of busy time (not of the whole host)
/// says how much of a running thread's wall time was taken away.
struct Meter {
  Clock::time_point wall0;
  CpuTicks ticks0;
  double wall_s = 0.0;
  double steal_frac = 0.0;    ///< steal share of the host's capacity
  double steal_share = 0.0;   ///< steal share of busy vCPU time

  void start();
  void stop();
};

/// The validity gate's floor. Steal is mostly the host's delay in waking a
/// halted vCPU, so a workload that wakes its pool threads often sees more of
/// it: under 2% on a calm host, 5-30% when the host is contended, which cut
/// closed-loop rates by up to 40%. While any block is above this share
/// and the retry budget lasts, the most-stolen block is run again.
constexpr double kMaxStealShare = 0.02;

/// One measured attempt at a block of consecutive ops.
struct Block {
  long long attempted = 0;
  long long completed = 0;   ///< completed and passed its output check
  long long good = 0;        ///< ... and met the workload's latency limit
  std::vector<double> latency_ms;  ///< completed ops
  /// Closed loops: summed op times; the open loop: first due time to last
  /// completion.
  double wall_s = 0.0;
  /// Process CPU of the ops: closed loops sum it per op; the open loop
  /// takes it over the whole block, which is when the server works.
  double cpu_s = 0.0;
  double steal_share = 0.0;
  double steal_frac = 0.0;
  double span_s = 0.0;       ///< wall time of the whole attempt, checks included
};

/// One timed pass of a workload: what the end-to-end metrics derive from.
/// The ops run as kBlocks consecutive blocks. While the retry budget lasts,
/// the block with the most steal above kMaxStealShare is run again (the
/// same ops, every output checked again), and each block's figures come
/// from its least-stolen attempt. Counts come from first attempts only, so
/// they never depend on the host.
struct Pass {
  long long attempted = 0;
  long long completed = 0;
  long long good = 0;
  std::vector<Block> blocks;  ///< the kept attempt of each block
  int retries = 0;
  double wall_s = 0.0;        ///< the whole pass, retries included
  bool open_loop = false;

  static constexpr int kBlocks = 10;

  /// Median over blocks of each block's completions per second.
  double ops_per_s() const;
  /// Median over blocks of process CPU ms per attempted op.
  double cpu_ms_per_op() const;
  /// Latency percentile over the completed ops of every kept block.
  double latency_quantile_ms(double q) const;
  double steal_frac() const;       ///< mean over kept blocks
  double steal_share() const;      ///< mean over kept blocks
  int blocks_over_gate() const;    ///< kept blocks still above kMaxStealShare
};

/// Runs ops [0, count) as Pass::kBlocks blocks through
/// `run_block(lo, hi, first, block)`, which executes and checks ops
/// [lo, hi), fills the block's counts, latencies and wall time, and must
/// leave the workload able to run the same block again; `first` is false on
/// a re-run, whose results the workload must not accumulate twice.
/// Re-runs take at most `retry_budget_s` of wall time in all (a block is
/// not re-run when its last attempt would not fit); a budget of 0 re-runs
/// nothing (traced passes).
template <class RunBlock>
Pass run_blocks(long long count, double retry_budget_s, RunBlock run_block) {
  Pass pass;
  const auto n = static_cast<std::size_t>(count);
  const std::size_t blocks = std::min<std::size_t>(Pass::kBlocks, n);
  const auto attempt = [&](std::size_t b, bool first) {
    Block block;
    Meter meter;
    meter.start();
    run_block(n * b / blocks, n * (b + 1) / blocks, first, block);
    meter.stop();
    block.steal_share = meter.steal_share;
    block.steal_frac = meter.steal_frac;
    block.span_s = meter.wall_s;
    return block;
  };
  const Clock::time_point t0 = Clock::now();
  for (std::size_t b = 0; b < blocks; ++b) {
    pass.blocks.push_back(attempt(b, true));
    pass.attempted += pass.blocks.back().attempted;
    pass.completed += pass.blocks.back().completed;
    pass.good += pass.blocks.back().good;
  }
  double retry_s = 0.0;
  for (;;) {
    std::size_t worst = 0;
    for (std::size_t b = 1; b < blocks; ++b)
      if (pass.blocks[b].steal_share > pass.blocks[worst].steal_share) worst = b;
    if (pass.blocks[worst].steal_share <= kMaxStealShare ||
        retry_s + pass.blocks[worst].span_s > retry_budget_s)
      break;
    Block again = attempt(worst, false);
    retry_s += again.span_s;
    ++pass.retries;
    if (again.steal_share < pass.blocks[worst].steal_share) {
      // Counts stay those of the first attempt.
      again.attempted = pass.blocks[worst].attempted;
      again.good = pass.blocks[worst].good;
      pass.blocks[worst] = std::move(again);
    }
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

/// Wall time a gated pass may spend re-running blocks, per --second.
constexpr double kRetryBudgetPerSecond = 0.5;

/// Fill the seven end-to-end metrics from the untraced pass and record its
/// validity (steal, retries, blocks still over the gate).
void emit_end_to_end(Result& r, double setup_s, const Pass& pass, double prob_error);

/// Every per-layer metric name with its unit (the traced run reports each;
/// a layer a workload bypasses reads 0).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill the per-layer metrics every workload reports: host steal, trace
/// overhead (traced vs untraced, on the workload's primary rate or
/// latency), and the p99 tail diagnostic.
void emit_common_layers(Result& r, const Pass& untraced, const Pass& traced);

// -- Tracing ------------------------------------------------------------------

/// Record a benchmark-side span (category "bench"); no-op while tracing is
/// off. `name` must be a string literal.
void span(const char* name, Clock::time_point start, Clock::time_point end, std::uint64_t op_id);

/// Self time per span name over the resident "bench" spans: each op span's
/// duration minus the union of its same-id children, each child's own
/// duration. Written next to the Chrome trace and returned as
/// name -> mean ms per op.
std::map<std::string, double> self_times_ms_per_op(long long ops);

/// Export the resident trace and the self-time table to args.out_dir.
void export_trace(const Args& args, const std::map<std::string, double>& self_ms);

// -- Model -------------------------------------------------------------------

/// The benchmark model architecture (must match the committed checkpoint).
deepgate::Options model_options();

/// Verify the checkpoint's FNV-1a-64 against <path>.fnv1a64 and load it.
/// Throws std::runtime_error on a missing file or a hash mismatch.
std::unique_ptr<deepgate::Engine> load_engine(const std::string& checkpoint);

/// Hex FNV-1a-64 of a file's bytes; throws when unreadable.
std::string file_fnv1a64(const std::string& path);

// -- Checks --------------------------------------------------------------------

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b);
bool bitwise_equal(const dg::nn::Matrix& a, const dg::nn::Matrix& b);

/// The run's set-up: `make()` timed from process entry, as a user starting
/// the program pays it. With --setup-only the run stops here and reports
/// setup_s alone (run.py takes the median over several such processes);
/// returns null then.
template <class Make>
auto timed_setup(const Args& args, Result& r, double& setup_s, Make make) {
  auto state = make();
  setup_s = seconds_between(args.start, Clock::now());
  if (args.setup_only) {
    r.set("setup_s", setup_s, "s");
    state.reset();
  }
  return state;
}

// -- Workloads -----------------------------------------------------------------

void run_serve_open(const Args& args, Result& r);
void run_eval_offline(const Args& args, Result& r);
void run_label_corpus(const Args& args, Result& r);
void run_edit_session(const Args& args, Result& r);

}  // namespace pb
