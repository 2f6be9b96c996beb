// Fused no-grad GRU step (ctest label: kernels). A no-grad GruCell::forward
// runs one kern::gru_step call; the grad-enabled forward tapes the op
// composition of Eq. 6. The two must be memcmp-equal at every dispatch
// level (the avx2_fma overlay included), with the input whole or split into
// two column blocks, at row counts that cross the 16-row tile and the pool's
// chunk boundaries, at hidden widths with SIMD tails, on inputs holding the
// values the matmul zero-skip keys on, and at every thread count.
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/ops.hpp"
#include "nn/simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

namespace dg::nn {
namespace {

using kern::SimdLevel;

/// A dispatch configuration: a level, optionally with the fast-math overlay.
struct Lane {
  SimdLevel level;
  bool fast_math;
};

std::vector<Lane> runnable_lanes() {
  std::vector<Lane> lanes;
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kGeneric, SimdLevel::kAvx2})
    if (kern::simd::available(l)) lanes.push_back({l, false});
  if (kern::simd::available(SimdLevel::kAvx2)) lanes.push_back({SimdLevel::kAvx2, true});
  return lanes;
}

/// RAII: pin a lane, restore the previous level and overlay on scope exit.
class ScopedLevel {
 public:
  explicit ScopedLevel(const Lane& lane)
      : prev_level_(kern::simd::set_level(lane.level)),
        prev_fast_(kern::simd::set_fast_math(lane.fast_math)) {}
  ~ScopedLevel() {
    kern::simd::set_fast_math(prev_fast_);
    kern::simd::set_level(prev_level_);
  }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  SimdLevel prev_level_;
  bool prev_fast_;
};

/// Normal values with exact zeros, negative zeros and denormals of both
/// signs salted in.
Matrix salted(int rows, int cols, util::Rng& rng) {
  Matrix m = normal(rows, cols, 1.0F, rng);
  for (std::size_t i = 0; i < m.size(); ++i) {
    switch (rng.next_below(10)) {
      case 0: m.data()[i] = 0.0F; break;
      case 1: m.data()[i] = -0.0F; break;
      case 2: m.data()[i] = 1e-40F; break;
      case 3: m.data()[i] = -3e-41F; break;
      default: break;
    }
  }
  return m;
}

/// Gate-type one-hot block, the trailing input columns DirectedLayer feeds.
Matrix onehot(int rows, int cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r)
    m.at(r, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cols)))) = 1.0F;
  return m;
}

Matrix slice(const Matrix& a, int c0, int c1) {
  Matrix out(a.rows(), c1 - c0);
  for (int r = 0; r < a.rows(); ++r)
    std::copy(a.row_ptr(r) + c0, a.row_ptr(r) + c1, out.row_ptr(r));
  return out;
}

struct Dims {
  int input, hidden;
};

constexpr Dims kDims[] = {{35, 32}, {15, 12}, {5, 7}};
constexpr int kRows[] = {0, 1, 7, 16, 17, 31, 33, 100, 257};
constexpr int kTailCols = 3;  // width of the split-off block

void expect_same_bits(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  if (want.size() == 0) return;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float))) << what;
}

TEST(GruStep, NoGradForwardBitwiseEqualsTapedForward) {
  const int pool_threads = std::max(3, util::default_num_threads());
  for (const Dims& d : kDims) {
    util::Rng rng(static_cast<std::uint64_t>(d.input * 100 + d.hidden));
    const GruCell gru(d.input, d.hidden, rng);
    NamedParams params;
    gru.collect(params, "gru");
    // Non-zero biases, so the bias adds are exercised too.
    for (auto& [name, t] : params)
      if (t.rows() == 1) t.mutable_value() = normal(1, t.cols(), 0.5F, rng);

    for (const int rows : kRows) {
      const Matrix h = salted(rows, d.hidden, rng);
      Matrix x = salted(rows, d.input, rng);
      const Matrix tail = onehot(rows, kTailCols, rng);
      for (int r = 0; r < rows; ++r)
        std::copy(tail.row_ptr(r), tail.row_ptr(r) + kTailCols,
                  x.row_ptr(r) + d.input - kTailCols);
      const Matrix head = slice(x, 0, d.input - kTailCols);

      for (const Lane& lane : runnable_lanes()) {
        const ScopedLevel pin(lane);
        for (const int threads : {1, pool_threads}) {
          util::set_global_threads(threads);
          const std::string tag = std::string(kern::simd::level_name(lane.level)) +
                                  (lane.fast_math ? "+fma" : "") + " " +
                                  std::to_string(d.input) + "x" + std::to_string(d.hidden) +
                                  " rows=" + std::to_string(rows) +
                                  " threads=" + std::to_string(threads);
          const Matrix want = gru.forward(constant(x), constant(h)).value();
          NoGradGuard no_grad;
          const ArenaScope arena;
          expect_same_bits(gru.forward(constant(x), constant(h)).value(), want, tag + " whole");
          expect_same_bits(
              gru.forward(constant(head), constant(h), constant(tail)).value(), want,
              tag + " split");
        }
      }
    }
  }
  util::set_global_threads(util::default_num_threads());
}

// The grad-enabled forward with a split input tapes the concatenation, so
// gradients still reach both blocks.
TEST(GruStep, SplitInputTapesConcatenation) {
  util::Rng rng(5);
  const GruCell gru(6, 4, rng);
  const Tensor head = Tensor::leaf(normal(3, 4, 1.0F, rng), /*requires_grad=*/true);
  const Tensor tail = Tensor::leaf(normal(3, 2, 1.0F, rng), /*requires_grad=*/true);
  const Tensor h = constant(normal(3, 4, 1.0F, rng));
  sum_all(gru.forward(head, h, tail)).backward();
  ASSERT_TRUE(head.grad().same_shape(head.value()));
  ASSERT_TRUE(tail.grad().same_shape(tail.value()));
  float tail_norm = 0.0F;
  for (std::size_t i = 0; i < tail.grad().size(); ++i)
    tail_norm += std::abs(tail.grad().data()[i]);
  EXPECT_GT(tail_norm, 0.0F);
}

}  // namespace
}  // namespace dg::nn
