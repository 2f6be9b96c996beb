#include "common.hpp"

#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace pb {

long long Args::op_count(double per_second) const {
  if (ops > 0) return ops;
  return std::max<long long>(1, std::llround(per_second * seconds));
}

double Args::retry_budget_s() const { return kRetryBudgetPerSecond * seconds; }

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace

void Result::note(const std::string& key, double value) { provenance[key] = json_number(value); }
void Result::note(const std::string& key, const std::string& value) {
  provenance[key] = json_string(value);
}

void Result::note(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i > 0 ? ", " : "") + json_number(values[i]);
  provenance[key] = out + "]";
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    if (correct) std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
    correct = false;
  }
  return ok;
}

// -- Statistics ---------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<std::size_t> balanced_order(std::uint64_t seed, std::size_t count, std::size_t pool) {
  dg::util::Rng rng(seed);
  std::vector<std::size_t> out(count);
  std::vector<std::size_t> order(pool);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % pool == 0) {
      for (std::size_t k = 0; k < pool; ++k) order[k] = k;
      for (std::size_t k = pool; k > 1; --k) std::swap(order[k - 1], order[rng.next_below(k)]);
    }
    out[i] = order[i % pool];
  }
  return out;
}

// -- Host meters --------------------------------------------------------------

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTicks CpuTicks::now() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already inside user/nice, so the total stops at steal.
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field != 3 && field != 4) t.busy += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void Meter::start() {
  ticks0 = CpuTicks::now();
  wall0 = Clock::now();
}

void Meter::stop() {
  wall_s = seconds_between(wall0, Clock::now());
  const CpuTicks t = CpuTicks::now();
  const auto total = static_cast<double>(t.total - ticks0.total);
  const auto busy = static_cast<double>(t.busy - ticks0.busy);
  const auto steal = static_cast<double>(t.steal - ticks0.steal);
  if (total > 0.0) steal_frac = steal / total;
  if (busy > 0.0) steal_share = steal / busy;
}

double Pass::ops_per_s() const {
  std::vector<double> rates;
  for (const Block& b : blocks)
    rates.push_back(b.wall_s > 0.0 ? static_cast<double>(b.completed) / b.wall_s : 0.0);
  return quantile(rates, 0.5);
}

double Pass::cpu_ms_per_op() const {
  std::vector<double> per_op;
  for (const Block& b : blocks)
    per_op.push_back(b.cpu_s * 1e3 / static_cast<double>(std::max<long long>(1, b.attempted)));
  return quantile(per_op, 0.5);
}

double Pass::latency_quantile_ms(double q) const {
  std::vector<double> all;
  for (const Block& b : blocks) all.insert(all.end(), b.latency_ms.begin(), b.latency_ms.end());
  return quantile(all, q);
}

double Pass::steal_frac() const {
  std::vector<double> v;
  for (const Block& b : blocks) v.push_back(b.steal_frac);
  return mean(v);
}

double Pass::steal_share() const {
  std::vector<double> v;
  for (const Block& b : blocks) v.push_back(b.steal_share);
  return mean(v);
}

int Pass::blocks_over_gate() const {
  return static_cast<int>(std::count_if(blocks.begin(), blocks.end(), [](const Block& b) {
    return b.steal_share > kMaxStealShare;
  }));
}

void emit_end_to_end(Result& r, double setup_s, const Pass& pass, double prob_error) {
  const double attempted = static_cast<double>(std::max<long long>(1, pass.attempted));
  r.set("setup_s", setup_s, "s");
  r.set("ops_per_s", pass.ops_per_s(), "1/s");
  r.set("latency_p50_ms", pass.latency_quantile_ms(0.50), "ms");
  r.set("latency_p95_ms", pass.latency_quantile_ms(0.95), "ms");
  r.set("goodput_frac", static_cast<double>(pass.good) / attempted, "frac");
  r.set("cpu_ms_per_op", pass.cpu_ms_per_op(), "ms");
  r.set("prob_error", prob_error, "abs");
  r.note("steal_frac", pass.steal_frac());
  r.note("steal_share", pass.steal_share());
  r.note("block_retries", static_cast<double>(pass.retries));
  r.note("blocks_over_gate", static_cast<double>(pass.blocks_over_gate()));
  std::vector<double> steal;
  std::vector<double> rate;
  for (const Block& b : pass.blocks) {
    steal.push_back(b.steal_share);
    rate.push_back(b.wall_s > 0.0 ? static_cast<double>(b.completed) / b.wall_s : 0.0);
  }
  r.note("block_steal_share", steal);
  r.note("block_ops_per_s", rate);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      // serve, on serve_open
      {"serve.submit_us_p95", "us"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.service_ms_p95", "ms"},
      {"serve.batch_graphs_mean", "count"},
      {"serve.overloaded", "count"},
      {"serve.lanes.utilization", "frac"},
      {"bench.gen_lag_ms_p95", "ms"},
      // gnn and util, on eval_offline
      {"gnn.merge_cache.hit_frac", "frac"},
      {"gnn.merge_groups_per_op", "count"},
      {"util.pool.utilization", "frac"},
      // nn, on serve_open, eval_offline and edit_session
      {"nn.arena.heap_allocs_per_op", "count"},
      // gnn and core, on edit_session
      {"gnn.delta_edit_us_p50", "us"},
      {"core.incremental_query_ms_p50", "ms"},
      {"gnn.dirty_frac_mean", "frac"},
      {"gnn.dirty_frac_p50", "frac"},
      {"gnn.forwards.partial_frac", "frac"},
      {"edit.rejected_frac", "frac"},
      // synth, aig, sim and gnn, on label_corpus
      {"synth.optimize_ms_p50", "ms"},
      {"aig.gate_graph_ms_p50", "ms"},
      {"sim.probabilities_ms_p50", "ms"},
      {"sim.node_patterns_per_s", "1/s"},
      {"sim.op_time_frac", "frac"},
      {"gnn.graph_build_ms_p50", "ms"},
      // every workload
      {"host.steal_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"},
      {"bench.latency_p99_ms", "ms"},
  };
  return names;
}

void emit_common_layers(Result& r, const Pass& untraced, const Pass& traced) {
  for (const auto& [name, unit] : per_layer_metrics())
    if (r.metrics.count(name) == 0) r.set(name, 0.0, unit);
  r.set("host.steal_frac", traced.steal_frac(), "frac");
  double overhead = 0.0;
  if (untraced.open_loop) {
    // The open loop's rate is fixed, so tracing shows up as latency.
    const double base = untraced.latency_quantile_ms(0.5);
    if (base > 0.0) overhead = traced.latency_quantile_ms(0.5) / base - 1.0;
  } else if (traced.ops_per_s() > 0.0) {
    overhead = untraced.ops_per_s() / traced.ops_per_s() - 1.0;
  }
  r.set("obs.trace_overhead_frac", overhead, "frac");
  r.set("bench.latency_p99_ms", untraced.latency_quantile_ms(0.99), "ms");
}

// -- Tracing ------------------------------------------------------------------

namespace {
constexpr const char* kBenchCat = "bench";
}

void span(const char* name, Clock::time_point start, Clock::time_point end, std::uint64_t op_id) {
  dg::obs::trace_record(name, kBenchCat, start, end, op_id);
}

std::map<std::string, double> self_times_ms_per_op(long long ops) {
  struct Interval {
    std::int64_t start, end;
  };
  std::map<std::uint64_t, Interval> op_span;
  std::map<std::uint64_t, std::vector<Interval>> children;
  std::map<std::string, double> total_ns;
  for (const dg::obs::TraceEvent& e : dg::obs::trace_events()) {
    if (e.cat == nullptr || std::strcmp(e.cat, kBenchCat) != 0 || e.dur_ns < 0) continue;
    const Interval iv{e.start_ns, e.start_ns + e.dur_ns};
    if (std::strcmp(e.name, "op") == 0) {
      op_span[e.id] = iv;
    } else {
      children[e.id].push_back(iv);
      total_ns[e.name] += static_cast<double>(e.dur_ns);
    }
  }
  for (const auto& [id, op] : op_span) {
    std::vector<Interval> kids = children[id];
    std::sort(kids.begin(), kids.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    std::int64_t covered = 0;
    std::int64_t cursor = op.start;
    for (const Interval& k : kids) {
      const std::int64_t lo = std::max(k.start, cursor);
      const std::int64_t hi = std::min(k.end, op.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    total_ns["op"] += static_cast<double>(op.end - op.start - covered);
  }
  std::map<std::string, double> per_op;
  const double n = static_cast<double>(std::max<long long>(1, ops));
  for (const auto& [name, ns] : total_ns) per_op[name] = ns * 1e-6 / n;
  return per_op;
}

void export_trace(const Args& args, const std::map<std::string, double>& self_ms) {
  if (args.out_dir.empty()) return;
  const std::string stem =
      args.out_dir + "/" + args.workload + "_seed" + std::to_string(args.seed);
  if (!dg::obs::dump_trace(stem + "_trace.json"))
    std::fprintf(stderr, "perfbench: cannot write %s_trace.json\n", stem.c_str());
  std::ofstream out(stem + "_self_ms.json");
  out << "{";
  bool first = true;
  for (const auto& [name, ms] : self_ms) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_number(ms);
    first = false;
  }
  out << "}\n";
}

// -- Model -------------------------------------------------------------------

deepgate::Options model_options() {
  deepgate::Options options;  // DeepGate, attention aggregator, skip connections
  options.model.dim = 32;
  options.model.iterations = 10;
  options.model.mlp_hidden = 24;
  options.model.seed = 1001;
  options.precision = deepgate::Precision::kFp32;
  return options;
}

std::string file_fnv1a64(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(dg::util::fnv1a_bytes(bytes.data(), bytes.size())));
  return hex;
}

std::unique_ptr<deepgate::Engine> load_engine(const std::string& checkpoint) {
  std::ifstream hash_file(checkpoint + ".fnv1a64");
  std::string expected;
  if (!(hash_file >> expected)) throw std::runtime_error("missing " + checkpoint + ".fnv1a64");
  const std::string actual = file_fnv1a64(checkpoint);
  if (actual != expected)
    throw std::runtime_error("checkpoint hash mismatch: " + checkpoint + " is " + actual +
                             ", expected " + expected);
  auto engine = std::make_unique<deepgate::Engine>(model_options());
  if (!engine->load(checkpoint)) throw std::runtime_error("cannot load " + checkpoint);
  return engine;
}

// -- Checks --------------------------------------------------------------------

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool bitwise_equal(const dg::nn::Matrix& a, const dg::nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::size_t n = static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(a.cols());
  return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

}  // namespace pb
