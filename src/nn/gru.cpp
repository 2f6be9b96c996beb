#include "nn/gru.hpp"

#include "nn/init.hpp"
#include "nn/kernels.hpp"

namespace dg::nn {

GruCell::GruCell(int input_size, int hidden_size, util::Rng& rng)
    : input_(input_size), hidden_(hidden_size) {
  auto make_w = [&](int r, int c) {
    return Tensor::leaf(xavier_uniform(r, c, rng), /*requires_grad=*/true);
  };
  auto make_b = [&](int c) {
    return Tensor::leaf(Matrix::zeros(1, c), /*requires_grad=*/true);
  };
  wz_ = make_w(input_size, hidden_size);
  uz_ = make_w(hidden_size, hidden_size);
  bz_ = make_b(hidden_size);
  wr_ = make_w(input_size, hidden_size);
  ur_ = make_w(hidden_size, hidden_size);
  br_ = make_b(hidden_size);
  wn_ = make_w(input_size, hidden_size);
  un_ = make_w(hidden_size, hidden_size);
  bn_ = make_b(hidden_size);
}

Tensor GruCell::forward(const Tensor& x, const Tensor& h, const Tensor& x_tail) const {
  if (!grad_enabled()) {
    const kern::GruWeights w{wz_.value(), uz_.value(), bz_.value(), wr_.value(), ur_.value(),
                             br_.value(), wn_.value(), un_.value(), bn_.value()};
    return constant(
        kern::gru_step(x.value(), x_tail.defined() ? &x_tail.value() : nullptr, h.value(), w));
  }
  const Tensor in = x_tail.defined() ? concat_cols(x, x_tail) : x;
  const Tensor z = sigmoid(add_rowvec(add(matmul(in, wz_), matmul(h, uz_)), bz_));
  const Tensor r = sigmoid(add_rowvec(add(matmul(in, wr_), matmul(h, ur_)), br_));
  const Tensor n = tanh_t(add_rowvec(add(matmul(in, wn_), mul(r, matmul(h, un_))), bn_));
  // h' = (1 - z) o n + z o h, written without a ones constant:
  // h' = n - z o n + z o h.
  return add(sub(n, mul(z, n)), mul(z, h));
}

void GruCell::collect(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + ".wz", wz_);
  out.emplace_back(prefix + ".uz", uz_);
  out.emplace_back(prefix + ".bz", bz_);
  out.emplace_back(prefix + ".wr", wr_);
  out.emplace_back(prefix + ".ur", ur_);
  out.emplace_back(prefix + ".br", br_);
  out.emplace_back(prefix + ".wn", wn_);
  out.emplace_back(prefix + ".un", un_);
  out.emplace_back(prefix + ".bn", bn_);
}

}  // namespace dg::nn
