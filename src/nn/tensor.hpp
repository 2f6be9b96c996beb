// Reverse-mode automatic differentiation.
//
// A Tensor is a shared handle to a tape node holding a Matrix value, an
// optionally-materialized gradient, and a backward closure that scatters the
// node's gradient into its parents. Calling backward() on a scalar tensor
// walks the tape in reverse topological order — exactly the dynamic-graph
// model of PyTorch, which DeepGate's recurrent unrolled propagation needs.
//
// Inference can disable taping entirely with NoGradGuard, which matters for
// the paper's Table III evaluation on 47k-gate circuits.
#pragma once

#include "nn/matrix.hpp"

#include <functional>
#include <memory>
#include <vector>

namespace dg::nn {

struct TapeNode {
  Matrix value;
  Matrix grad;            // same shape as value once touched
  bool requires_grad = false;
  bool has_grad = false;  // grad buffer materialized?
  std::vector<std::shared_ptr<TapeNode>> parents;
  // Reads this->grad, accumulates into parents' grads. Null for leaves.
  std::function<void(TapeNode&)> backward_fn;

  /// Accumulate `d` into this node's gradient, materializing it on demand.
  void accum_grad(const Matrix& d);
};

class Tensor {
 public:
  Tensor() = default;

  /// Leaf tensor (parameter or constant input).
  static Tensor leaf(Matrix value, bool requires_grad = false);

  /// Interior tape node; `requires_grad` is inferred from parents.
  static Tensor make(Matrix value, std::vector<Tensor> parents,
                     std::function<void(TapeNode&)> backward_fn);

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  Matrix& mutable_value() { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool has_grad() const { return node_->has_grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  int rows() const { return node_->value.rows(); }
  int cols() const { return node_->value.cols(); }

  /// Scalar convenience: value of a 1x1 tensor.
  float item() const;

  /// Run reverse-mode AD from this tensor. Must be 1x1 (a scalar loss);
  /// seeds d(self)/d(self) = 1 and propagates through the tape. Gradients
  /// accumulate — call Optimizer::zero_grad() (or zero_grad() on leaves)
  /// between steps.
  void backward() const;

  /// Drop any materialized gradient.
  void zero_grad();

  std::shared_ptr<TapeNode> node() const { return node_; }

  /// True when this handle is the only one on its node, so writing through
  /// mutable_value() changes no other Tensor (the copy-on-write test).
  bool sole_owner() const { return node_.use_count() == 1; }

 private:
  explicit Tensor(std::shared_ptr<TapeNode> node) : node_(std::move(node)) {}
  std::shared_ptr<TapeNode> node_;
};

/// True when operations should record backward closures.
bool grad_enabled();

/// RAII guard that disables taping within its scope (nestable).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace dg::nn
