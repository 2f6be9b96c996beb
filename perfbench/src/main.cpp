// perfbench: the repo benchmark's single binary.
//
//   perfbench --workload <serve_open|eval_offline|label_corpus|edit_session>
//             --seed N --seconds S --trace 0|1 --checkpoint perfbench/model.dgtp
//             [--out-dir DIR] [--ops K] [--setup-only 1]
//   perfbench --make-checkpoint PATH
//
// A run prints one provenance line and, last, one result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics of an untraced pass; --trace 1
// runs the same op list untraced and then traced, and reports the
// per-layer metrics. --setup-only 1 stops after set-up and reports setup_s
// alone (timed from process entry). Exit status: 0 when every output check passed, 1 when
// one failed (the result line is still printed), 2 on a usage or set-up
// error (no result line).
#include "common.hpp"

#include "data/dataset.hpp"
#include "nn/arena.hpp"
#include "nn/simd/dispatch.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace {

using pb::Args;
using pb::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--checkpoint PATH [--out-dir DIR] [--ops K] [--setup-only 1]\n"
               "       perfbench --make-checkpoint PATH\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text, long long lo, long long hi) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + text);
  }
  if (used != text.size() || v < lo || v > hi) usage("bad value for " + flag + ": " + text);
  return v;
}

/// CPU model line and the vector-extension flags that select kernel paths.
void note_host(Result& r) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string model;
  std::string flags;
  while (std::getline(in, line) && (model.empty() || flags.empty())) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 && model.empty()) model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string w;
      while (words >> w)
        if (w == "sse4_2" || w == "avx" || w == "avx2" || w == "fma" || w == "avx512f" ||
            w == "avx512bw" || w == "avx512vl" || w == "avx512_bf16" || w == "f16c")
          flags += (flags.empty() ? "" : " ") + w;
    }
  }
  r.note("cpu_model", model);
  r.note("cpu_flags", flags);
  r.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  r.note("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  r.note("compiler", std::string("gcc ") + __VERSION__);
#endif
}

void note_knobs(Result& r, const Args& args) {
  namespace kern = dg::nn::kern;
  r.note("workload", args.workload);
  r.note("seed", static_cast<double>(args.seed));
  r.note("ops_attempted", static_cast<double>(r.attempted));
  r.note("seconds", static_cast<double>(args.seconds));
  r.note("traced", args.trace ? "on" : "off");
  r.note("simd", kern::simd::level_name(kern::simd::active()));
  r.note("fast_math", kern::simd::fast_math() ? "on" : "off");
  r.note("precision", kern::precision_name(pb::model_options().precision));
  r.note("arena", dg::nn::arena_enabled() ? "on" : "off");
  r.note("metrics", dg::obs::metrics_enabled() ? "on" : "off");
  r.note("pool_threads", static_cast<double>(dg::util::global_pool().num_threads()));
  r.note("serve_lanes", static_cast<double>(pb::kComputeThreads));
}

std::string render(const Result& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << m.value << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string render_provenance(const Result& r) {
  std::ostringstream os;
  os << "{\"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : r.provenance) {
    os << (first ? "" : ", ") << '"' << key << "\": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

/// The committed checkpoint: DeepGate (attention, skip connections), d=32,
/// T=10, trained on the small-scale Table I mix (dataset seed 1, 90% split)
/// with the pool pinned to kComputeThreads; two runs of this command
/// produced byte-identical files.
int make_checkpoint(const std::string& path) {
  dg::data::Dataset ds = dg::data::build_dataset(
      dg::data::default_dataset_config(dg::util::BenchScale::kSmall, 1), dg::data::BuildOptions{});
  std::vector<deepgate::CircuitGraph> train;
  std::vector<deepgate::CircuitGraph> test;
  ds.split(0.9, 8, train, test);
  deepgate::Engine engine(pb::model_options());
  deepgate::TrainConfig cfg;
  cfg.epochs = 12;
  cfg.lr = 2e-3F;
  cfg.batch_circuits = 4;
  cfg.seed = 1;
  const auto result = engine.train(train, cfg);
  if (!engine.save(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("trained %zu circuits, final loss %.6f, held-out error %.6f\n", train.size(),
              result.epoch_loss.empty() ? 0.0 : result.epoch_loss.back(), engine.evaluate(test));
  std::printf("%s\n", pb::file_fnv1a64(path).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.start = pb::Clock::now();
  std::string make_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = static_cast<std::uint64_t>(parse_int(flag, value, 0, 1LL << 62));
    else if (flag == "--seconds") args.seconds = static_cast<int>(parse_int(flag, value, 1, 3600));
    else if (flag == "--trace") args.trace = parse_int(flag, value, 0, 1) == 1;
    else if (flag == "--setup-only") args.setup_only = parse_int(flag, value, 0, 1) == 1;
    else if (flag == "--ops") args.ops = parse_int(flag, value, 1, 1LL << 40);
    else if (flag == "--checkpoint") args.checkpoint = value;
    else if (flag == "--out-dir") args.out_dir = value;
    else if (flag == "--make-checkpoint") make_path = value;
    else usage("unknown flag " + flag);
  }

  dg::util::set_global_threads(pb::kComputeThreads);
  dg::obs::trace_set_enabled(false);
  try {
    if (!make_path.empty()) return make_checkpoint(make_path);
    if (args.checkpoint.empty()) usage("--checkpoint is required");

    Result r;
    if (args.workload == "serve_open") pb::run_serve_open(args, r);
    else if (args.workload == "eval_offline") pb::run_eval_offline(args, r);
    else if (args.workload == "label_corpus") pb::run_label_corpus(args, r);
    else if (args.workload == "edit_session") pb::run_edit_session(args, r);
    else usage("unknown workload " + args.workload);

    note_host(r);
    note_knobs(r, args);
    const std::string provenance = render_provenance(r);
    std::printf("%s\n%s\n", provenance.c_str(), render(r).c_str());
    if (!args.out_dir.empty() && !args.setup_only) {
      std::ofstream out(args.out_dir + "/" + args.workload + "_seed" + std::to_string(args.seed) +
                        (args.trace ? "_traced" : "") + "_provenance.json");
      out << provenance << '\n';
    }
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
