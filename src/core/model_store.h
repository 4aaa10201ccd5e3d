#ifndef OCULAR_CORE_MODEL_STORE_H_
#define OCULAR_CORE_MODEL_STORE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "core/model_io.h"
#include "core/ocular_trainer.h"
#include "sparse/dense.h"

namespace ocular {

/// \file
/// \brief Binary model format v2 ("OCLR") and the mmap-backed zero-copy
/// ModelStore that serves it.
///
/// The v1 text format (core/model_io.h) is portable and diffable but has
/// to be *parsed*: loading re-tokenizes and re-converts every factor entry,
/// which for a production catalog (millions of users x K doubles) costs
/// seconds of CPU before the first request can be served. The v2 binary
/// format is the deployable artifact: factor sections are stored
/// little-endian, 64-byte aligned, exactly as the serving kernels consume
/// them (including the K x n_i transposed serving layout), so a ModelStore
/// opens a model by mmapping the file and validating O(header) bytes — no
/// parse, no copy; the factor bytes are faulted in lazily by the page
/// cache and shared between processes. See docs/MODEL_FORMAT.md for the
/// byte-level specification.

/// \brief Scoring rule recorded in a v2 file, which tells a model-agnostic
/// server how to map the factor product to a score.
enum class BinaryModelKind : uint32_t {
  /// score = 1 - e^{-<f_u, f_i>} (OCuLaR / R-OCuLaR probability map).
  kOcularProbability = 0,
  /// score = <f_u, f_i> (wALS, iALS, BPR and any plain MF model).
  kDotProduct = 1,
};

/// \brief Model-level metadata carried in the v2 header.
struct BinaryModelMeta {
  /// Scoring rule of the stored factors.
  BinaryModelKind kind = BinaryModelKind::kOcularProbability;
  /// Factor dimension (columns of both factor matrices, bias dims
  /// included).
  uint32_t k = 0;
  /// Regularization weight the model was trained with (informational).
  double lambda = 0.0;
  /// True when the last two factor dimensions are the bias extension of
  /// OcularConfig::use_biases.
  bool use_biases = false;
  /// True for R-OCuLaR (relative-preference) training.
  bool relative_variant = false;
  /// Short algorithm tag ("OCuLaR", "wALS", ...; at most 15 bytes).
  std::string algorithm = "OCuLaR";
};

/// \brief Writes `model` (+ its training config) as a binary v2 file.
///
/// The file holds three checksummed sections: user factors (n_u x K,
/// row-major), item factors (n_i x K, row-major) and the K x n_i
/// transposed serving layout, each 64-byte aligned so the mmapped views
/// are cache-line aligned. Fails like SaveModel on invalid models or
/// config/model dimension mismatch.
Status SaveModelBinary(const OcularModel& model, const OcularConfig& config,
                       const std::string& path);

/// \brief Generic v2 writer for any user x item factor pair — how the
/// factor baselines (wALS/iALS/BPR) persist themselves; see
/// WalsRecommender::SaveBinary.
///
/// `users` and `items` must have meta.k columns each; the transposed
/// serving section is derived here.
Status SaveFactorsBinary(const BinaryModelMeta& meta, const DenseMatrix& users,
                         const DenseMatrix& items, const std::string& path);

/// \brief View-based v2 writer: persists `users`/`items` plus a
/// caller-provided K x n_i transposed serving section without copying any
/// factor block. This is the shard writer's save path
/// (core/model_shard.h): a user-range shard is a ConstMatrixView slice of
/// the full factor matrix, and the shared items file reuses the store's
/// mmapped transposed section as-is. Either factor view may be empty
/// (0 rows) — a shard file carries no items, the items file no users.
Status SaveFactorSectionsBinary(const BinaryModelMeta& meta,
                                ConstMatrixView users, ConstMatrixView items,
                                ConstMatrixView items_t,
                                const std::string& path);

/// \brief Shared save path of the dot-product factor baselines
/// (wALS/iALS/BPR `SaveBinary`): writes `users`/`items` as a
/// BinaryModelKind::kDotProduct v2 file tagged `algorithm`.
/// FailedPrecondition when `users` is empty (unfitted model).
Status SaveDotProductFactors(const std::string& algorithm, uint32_t k,
                             double lambda, const DenseMatrix& users,
                             const DenseMatrix& items,
                             const std::string& path);

/// \brief Converts a v1 text model (core/model_io.h) to a v2 binary file.
///
/// Factors are preserved bit-exactly ("%.17g" text round-trips doubles);
/// config fields map onto the v2 header.
Status ConvertTextModelToBinary(const std::string& text_path,
                                const std::string& binary_path);

/// \brief Options of ModelStore::Open.
struct ModelStoreOptions {
  /// Verify every section checksum at open time. Costs one read pass over
  /// the mapped bytes (still zero-copy, zero allocations); turn off for
  /// O(header) opens of trusted local artifacts and call
  /// ModelStore::VerifyChecksums before first use instead if desired.
  bool verify_checksums = true;
};

/// \brief Zero-copy read view of a binary v2 model file.
///
/// Open() mmaps the file read-only, validates the header and the section
/// table, and exposes the factor sections as ConstMatrixViews pointing
/// directly into the mapping — no factor bytes are parsed, copied or even
/// touched until a kernel reads them (the page cache faults them in on
/// demand and can share them across every process serving the same model).
/// The store owns the mapping; views remain valid for its lifetime.
/// Movable, not copyable.
class ModelStore {
 public:
  /// \brief Opens `path` and validates it. IOError on unreadable files,
  /// ParseError on malformed/foreign/truncated content or checksum
  /// mismatch.
  static Result<ModelStore> Open(const std::string& path,
                                 const ModelStoreOptions& options = {});

  /// \brief An empty (not-open) store; only assignment and destruction
  /// are valid.
  ModelStore() = default;
  /// \brief Transfers the mapping; `other` becomes not-open.
  ModelStore(ModelStore&& other) noexcept;
  /// \brief Transfers the mapping, unmapping any currently held one.
  ModelStore& operator=(ModelStore&& other) noexcept;
  ModelStore(const ModelStore&) = delete;             ///< not copyable
  ModelStore& operator=(const ModelStore&) = delete;  ///< not copyable
  /// \brief Unmaps the file. All views die with the store.
  ~ModelStore();

  /// Header metadata of the opened file.
  const BinaryModelMeta& meta() const { return meta_; }
  /// Users (rows of user_factors()).
  uint32_t num_users() const { return num_users_; }
  /// Items (rows of item_factors()).
  uint32_t num_items() const { return num_items_; }
  /// Factor dimension (bias dims included).
  uint32_t k() const { return meta_.k; }
  /// Path of the mapped file: where it was opened, or set_path's.
  const std::string& path() const { return path_; }
  /// \brief Records that the mapped file now lives at `path`: a rename
  /// moves the name, and the mapping stays bound to the same inode.
  void set_path(std::string path) { path_ = std::move(path); }
  /// Total bytes mapped (the file size).
  size_t mapped_bytes() const { return mapped_bytes_; }

  /// User factors, n_u x K row-major, viewing the mapping.
  ConstMatrixView user_factors() const {
    return {user_factors_, num_users_, meta_.k};
  }
  /// Item factors, n_i x K row-major, viewing the mapping.
  ConstMatrixView item_factors() const {
    return {item_factors_, num_items_, meta_.k};
  }
  /// Item factors in the K x n_i serving layout (vec::AffinityBlock's Vᵀ
  /// operand), viewing the mapping — the section whose presence makes a
  /// zero-copy open also zero-compute.
  ConstMatrixView item_factors_t() const {
    return {item_factors_t_, meta_.k, num_items_};
  }

  /// \brief Re-walks every section and recomputes its checksum. OK when
  /// the mapping still matches the header (detects on-disk corruption of
  /// a store opened with verify_checksums = false).
  Status VerifyChecksums() const;

  /// \brief Materializes an owning OcularModel + config copy (an O(model)
  /// copy — for retraining/conversion tooling, not the serving path).
  /// Fails unless meta().kind is kOcularProbability.
  Result<LoadedModel> MaterializeOcular() const;

 private:
  void Reset() noexcept;

  std::string path_;
  void* mapping_ = nullptr;  // mmap base, nullptr when default-constructed
  size_t mapped_bytes_ = 0;
  BinaryModelMeta meta_;
  uint32_t num_users_ = 0;
  uint32_t num_items_ = 0;
  const double* user_factors_ = nullptr;    // into the mapping
  const double* item_factors_ = nullptr;    // into the mapping
  const double* item_factors_t_ = nullptr;  // into the mapping
};

/// \brief True when the first bytes of `path` carry the v2 magic — how
/// format-sniffing loaders decide between ModelStore::Open and the v1 text
/// LoadModel.
bool IsBinaryModelFile(const std::string& path);

/// \brief Loads an OCuLaR model of any on-disk format into an owning
/// LoadedModel: `*.shardset` manifests are opened and gathered
/// (MaterializeShardSetOcular), v2 files are opened and materialized,
/// anything else goes through the v1 text LoadModel. For zero-copy
/// serving use ModelStore::Open / OpenShardSet directly.
Result<LoadedModel> LoadModelAuto(const std::string& path);

}  // namespace ocular

#endif  // OCULAR_CORE_MODEL_STORE_H_
