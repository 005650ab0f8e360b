// Batched inference engine behind a one-API/many-backends abstraction.
//
// Training became columnar (DESIGN §9); this module does the same for
// *prediction* — the path every deployed detector and every grid
// evaluation sits on. A trained model is lowered once into contiguous
// "flat" form — packed 16-byte tree nodes with a parallel
// leaf-probability array, rule lists as struct-of-arrays conditions
// evaluated rule-major (every condition of every rule as two-lane compare
// masks over a transposed tile, the first firing rule selected last),
// ensemble members as offset+weight records — and whole batches of
// intervals are scored per call with branch-free inner loops (the
// per-node child select is an indexed load, never a data-dependent
// branch, and samples walk eight at a time so independent load chains
// overlap in the pipeline). Full layout and measured numbers: DESIGN §13.
//
// Backends (the AbstractGfxLayer pattern: one API, several engines):
//
//   scalar  — the reference: loops Classifier::predict_proba row by row
//             over the pointer-linked model, exactly the pre-existing
//             behaviour. Every other backend is differentially tested
//             bit-identical against it.
//   flat    — the flattened branch-free batch engine. Supported for the
//             tree/rule families (J48, REPTree, RandomTree, JRip, OneR)
//             and AdaBoost/Bagging/RandomForest ensembles of them.
//   generic — the automatic fallback when `flat` is requested for a model
//             with no flat lowering (BayesNet, MLP, SGD, SMO and ensembles
//             of them): same batch API, scalar predict_proba inside, so
//             every caller can ask for the default without special-casing.
//   fixed   — bit-simulation of the HLS Q-format decision function; lives
//             in src/analysis (analysis::FixedPointBackend) because it is
//             built from the model IR, and gives the differential lint a
//             fast software oracle.
//
// Determinism contract: for any model, any backend returned by
// make_backend() produces bit-identical probabilities to the scalar
// reference, for any batch size and any thread count — the flat engine
// replays the exact double-precision comparisons and accumulation order of
// the scalar walk, it only schedules them branch-free. bench/micro_infer
// enforces this on every grid cell and exits non-zero on any mismatch.
//
// Thread safety: a backend is immutable after construction; concurrent
// predict_proba_batch() calls from different threads are safe (scratch
// state is call-local). Scalar/generic backends hold a reference to the
// model, which must outlive them; the flat backend is self-contained.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "ml/classifier.h"
#include "ml/dataset.h"

namespace hmd::ml {

/// Which inference engine services batch scoring.
enum class InferBackendKind {
  kScalar,  ///< reference pointer-walk, one row at a time
  kFlat,    ///< flattened branch-free batch engine (generic fallback)
};

/// One inference engine for one trained model.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Engine actually in use: "scalar", "flat", or "generic" (the scalar
  /// fallback behind a kFlat request the model cannot flatten).
  virtual std::string_view name() const = 0;

  /// Score `out.size()` samples stored row-major in `x`, `num_features`
  /// doubles each (x.size() == out.size() * num_features);
  /// out[i] = P(malware | row i). An empty batch is a no-op.
  virtual void predict_proba_batch(std::span<const double> x,
                                   std::size_t num_features,
                                   std::span<double> out) const = 0;

  /// Score every row of `data` (gathering non-contiguous views first).
  void predict_proba_batch(const Dataset& data, std::span<double> out) const;
  std::vector<double> predict_proba_batch(const Dataset& data) const;

  /// Single-sample convenience (a batch of one): the run-time detector's
  /// per-interval path.
  double predict_proba(std::span<const double> x) const;
};

/// True when `model` has a flat lowering: a *trained* tree/rule-family
/// model (J48, REPTree, RandomTree, JRip, OneR) or an
/// AdaBoost/Bagging/RandomForest ensemble of them. Untrained models report
/// false — they get the generic fallback, so the scalar "train() must be
/// called first" error still surfaces at predict time.
bool flat_supported(const Classifier& model);

/// Build an inference backend for a trained model. The default kFlat is
/// what every scoring path uses; kScalar is the reference the tests and
/// bench/micro_infer compare it against. Requesting kFlat for a model
/// without a flat lowering returns the generic fallback (same API, scalar
/// inside) rather than failing. Scalar/generic backends reference `model`;
/// it must outlive them.
std::unique_ptr<InferenceBackend> make_backend(
    const Classifier& model, InferBackendKind kind = InferBackendKind::kFlat);

}  // namespace hmd::ml
