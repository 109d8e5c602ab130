// Forward-only scoring plan: the serve path's one evaluator (DESIGN.md
// §16).
//
// A ScoringPlan is an immutable, compiled form of one fitted
// TransformerReconstructor. It re-expresses the model's eval-mode
// forward_blocked() directly on the tensor kernels — no autograd nodes, no
// per-op tensor allocation (scratch comes from a caller workspace), the
// three per-head q/k/v projections packed into one [d, 3d] gemm, and
// attention evaluated by block_attention_into. Its ScoringPath picks the
// arithmetic:
//
// - kStrict: fp32 weights, canonical kernels only, in forward_blocked's op
//   order — outputs are bitwise the model's forward_blocked() at any pool
//   size (a packed-column gemm accumulates each output element exactly as
//   the per-head gemm does).
// - kRelaxed: fp32 weights under a FastKernelScope — the same mathematical
//   function (identical MoE top-k routing code, clamping and residual
//   structure) evaluated with the dispatch tier's vector math, agreeing
//   with the canonical path to vector-math accuracy, never bitwise.
// - kQuantized: kRelaxed with the encoder/MoE weight matrices quantized to
//   int8 with per-channel calibration.
//
// Thread safety: a built plan is immutable and may be shared across
// threads; forward() only mutates the caller's workspace and its output.
// The model's MoE routing state and module arenas are never touched, so
// any number of threads may score one model at the same time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quant.hpp"

namespace ns {

class ThreadPool;

/// How serve-time forwards are evaluated (DESIGN.md §16).
///
/// Detection compares scores to k-sigma thresholds, so exact float
/// reproducibility is a replay/testing concern, not a correctness one —
/// the relaxed and quantized paths compute the same mathematical function
/// with different rounding, and flag flips can only happen for scores
/// already within rounding distance of the threshold.
enum class ScoringPath {
  /// Canonical kernels (scalar-reproducible), bitwise identical to the
  /// model's forward_blocked() and so to batch detect() — the serve
  /// default, and what serve_replay / compare_detections / all bitwise
  /// tests use (the CLI's --strict-replay selects it).
  kStrict = 0,
  /// fp32 weights under a FastKernelScope: vector math on the dispatched
  /// tier, fused scale+softmax attention.
  kRelaxed = 1,
  /// kRelaxed plus int8 per-channel quantized encoder/MoE weights (the
  /// calibration travels with each model generation).
  kQuantized = 2,
};

/// Per-channel int8 calibration for one model: the quantization scales of
/// every quantizable weight matrix, in ScoringPlan traversal order —
/// input_proj, then per layer the packed q|k|v matrix, out_proj, and each
/// expert's (or the dense FFN's) fc1/fc2. The routing gate and the decoder
/// stay fp32 and have no entry. Computed at fit/retrain time from the
/// trained weights and stored alongside the generation checkpoint, so a
/// serving replica quantizes exactly like the trainer did.
struct QuantCalibration {
  std::vector<std::vector<float>> channel_scales;
};

/// Max-abs/127 per-channel scales for every quantizable matrix of `model`.
QuantCalibration calibrate_quantization(const TransformerReconstructor& model);

class ScoringPlan {
 public:
  /// Compiles `model` for `path`. kQuantized needs a `calibration` (its
  /// scales must match the model's architecture); the fp32 paths take
  /// none. Weight storage is shared with the model, so the plan must not
  /// outlive mutation of the model's parameters — serving never mutates
  /// published models (retraining trains clones).
  ScoringPlan(const TransformerReconstructor& model, ScoringPath path,
              const QuantCalibration* calibration = nullptr);
  /// The relaxed plan, or the quantized one when `calibration` is set.
  explicit ScoringPlan(const TransformerReconstructor& model,
                       const QuantCalibration* calibration = nullptr)
      : ScoringPlan(model,
                    calibration != nullptr ? ScoringPath::kQuantized
                                           : ScoringPath::kRelaxed,
                    calibration) {}

  std::size_t input_dim() const { return input_dim_; }

  /// Evaluates the reconstruction of x [T, input_dim]. offsets /
  /// segment_ids have one entry per token; block_lens partitions the rows
  /// into independent attention blocks (<= 1 entries means one dense
  /// block), exactly like TransformerReconstructor::forward_blocked.
  Tensor forward(const Tensor& x, std::span<const std::size_t> offsets,
                 std::span<const std::size_t> segment_ids,
                 std::span<const std::size_t> block_lens, Workspace& ws,
                 ThreadPool* pool = nullptr) const;

 private:
  struct PlanLinear {
    Tensor w;            ///< fp32 weights [in, out] (shared storage)
    QuantizedMatrix qw;  ///< set instead of used-for-matmul w when quantized
    Tensor b;            ///< bias [out]; unset when !has_bias
    bool has_bias = false;
    void apply(Tensor& dst, const Tensor& x, ThreadPool* pool) const;
  };
  struct PlanExpert {
    PlanLinear fc1, fc2;
  };
  struct PlanLayer {
    Tensor ln1_gain, ln1_bias, ln2_gain, ln2_bias;
    PlanLinear qkv;       ///< packed [d, 3d]: q heads | k heads | v heads
    PlanLinear out_proj;  ///< [d, d] + bias
    Tensor gate_w;        ///< [d, N], fp32 always; unset for dense FFN
    std::vector<PlanExpert> experts;  ///< N experts, or 1 dense FFN
    bool moe = false;
    std::size_t top_k = 1;
  };

  std::size_t input_dim_ = 0, d_model_ = 0, heads_ = 0, head_dim_ = 0;
  ScoringPath path_ = ScoringPath::kStrict;
  PlanLinear input_proj_;
  Tensor sin_table_;           // shared with the model's posenc
  Tensor segment_embedding_;   // shared; unset when !segment_term_
  std::size_t max_len_ = 0, max_segments_ = 0;
  bool segment_term_ = false;
  std::vector<PlanLayer> layers_;
  Tensor final_gain_, final_bias_;
  PlanLinear decoder_;  ///< fp32 always
};

}  // namespace ns
