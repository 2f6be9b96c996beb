// Gated recurrent unit cell — the COMBINE function of DeepGate (Eq. 6).
//
//   z = sigmoid(x Wz + h Uz + bz)        update gate
//   r = sigmoid(x Wr + h Ur + br)        reset gate
//   n = tanh  (x Wn + r o (h Un) + bn)   candidate state
//   h' = (1 - z) o n + z o h
//
// All rows of a topological level are processed as one batch (N x I inputs,
// N x H states).
//
// Two executions of the same math. With gradients enabled, forward() tapes
// the composition above (~20 ops); that path trains and is the oracle. With
// gradients off, it makes one kern::gru_step call, which runs the same
// backend workers in the same order on row tiles and is bitwise equal to the
// taped forward on every backend. A caller whose input is two column blocks
// (DirectedLayer: message | gate-type one-hot) passes them separately, so
// the no-grad path needs no concatenated copy.
#pragma once

#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace dg::nn {

class GruCell {
 public:
  GruCell() = default;
  GruCell(int input_size, int hidden_size, util::Rng& rng);

  /// x: N x input, h: N x hidden -> new hidden N x hidden. `x_tail`, when
  /// defined, holds the trailing input columns: the input is then
  /// concat_cols(x, x_tail).
  Tensor forward(const Tensor& x, const Tensor& h, const Tensor& x_tail = Tensor()) const;

  void collect(NamedParams& out, const std::string& prefix) const;

  int input_size() const { return input_; }
  int hidden_size() const { return hidden_; }

 private:
  int input_ = 0;
  int hidden_ = 0;
  Tensor wz_, uz_, bz_;
  Tensor wr_, ur_, br_;
  Tensor wn_, un_, bn_;
};

}  // namespace dg::nn
