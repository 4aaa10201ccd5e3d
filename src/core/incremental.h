#ifndef OCULAR_CORE_INCREMENTAL_H_
#define OCULAR_CORE_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <utility>

#include "common/result.h"
#include "core/ocular_trainer.h"

namespace ocular {

/// \file
/// \brief Incremental model maintenance for a live deployment (Section
/// VIII): new clients sign up, new products launch, and new purchases
/// arrive daily — retraining from scratch wastes the previous solution.
///
/// Two ways to fold new interactions into a fitted model:
/// - RefreshModel, the online path behind the serving daemon's `update`:
///   grows the model and re-solves only the rows the new interactions
///   touch, O(touched nnz·K) per round. Every other row keeps its bytes.
/// - UpdateModel, the offline warm start: grows the model and runs full
///   trainer sweeps from it, which converge in a fraction of the
///   cold-start sweeps (verified in tests and the deployment example).

/// Options for growing a model to a new shape.
struct ExpandOptions {
  /// New rows are initialized iid Uniform(0, init_scale / sqrt(K)) — the
  /// same distribution the cold trainer uses.
  double init_scale = 1.0;
  /// Seed of the new-row initialization stream. 0 (the default) derives
  /// the seed from the old and new model shapes, so successive expansions
  /// of a growing catalog draw from decorrelated streams (a constant seed
  /// would hand every daily update batch the identical "random" rows)
  /// while each individual call stays deterministic. Nonzero pins the
  /// stream explicitly for reproducibility.
  uint64_t seed = 0;
};

/// The shape-derived stream seed ExpandModel uses when options.seed == 0 —
/// exposed so tests (and operators replaying an update) can reproduce it.
uint64_t DeriveExpandSeed(uint32_t old_users, uint32_t old_items,
                          uint32_t num_users, uint32_t num_items, uint32_t k);

/// Returns a copy of `model` grown to (num_users, num_items); existing
/// factors are preserved, new rows initialized randomly. Shrinking is an
/// error (retrain instead — factor rows cannot be meaningfully dropped).
Result<OcularModel> ExpandModel(const OcularModel& model, uint32_t num_users,
                                uint32_t num_items,
                                const ExpandOptions& options = {});

/// \brief What one RefreshModel call re-solved.
struct RefreshStats {
  /// Refresh rounds run (config.max_sweeps).
  uint32_t rounds = 0;
  /// Item rows re-solved each round: items named by an add, plus new rows.
  uint32_t items_refreshed = 0;
  /// User rows re-solved each round: users named by an add, plus new rows.
  uint32_t users_refreshed = 0;
};

/// \brief Local block-coordinate refresh: folds `adds` into `*model` in
/// place, touching only the rows the adds name.
///
/// `interactions` is the training matrix with `adds` already merged; the
/// model grows to its shape exactly as ExpandModel grows it (same stream,
/// same `options`), with the bias coordinates of new rows pinned as
/// UpdateModel pins them. Then `config.max_sweeps` rounds each run the
/// trainer's projected-gradient block updates (config.block_steps per
/// row) on the touched items — items named by an add, plus new item
/// rows — and then on the touched users, named by an add or new.
///
/// Σ_u f_u and Σ_i f_i are summed once and kept exact by subtracting each
/// row's old value and adding its new one, so a round costs
/// O(touched nnz·K). The users of the touched items come from one scan
/// of `interactions`; nothing is transposed and Q is never evaluated.
/// Every untouched row stays byte-identical, and the same inputs give the
/// same bytes (journal replay relies on it).
Result<RefreshStats> RefreshModel(
    OcularModel* model, const CsrMatrix& interactions,
    std::span<const std::pair<uint32_t, uint32_t>> adds,
    const OcularConfig& config, const ExpandOptions& options = {});

/// Warm-start update: grows `model` to the shape of `interactions` (which
/// may contain new users/items appended after the old id range) and runs
/// the trainer from it. `config.max_sweeps` bounds the refresh cost; a
/// handful of sweeps typically suffices because the old factors are
/// already near-stationary.
Result<OcularFitResult> UpdateModel(const OcularModel& model,
                                    const CsrMatrix& interactions,
                                    const OcularConfig& config,
                                    const ExpandOptions& options = {});

}  // namespace ocular

#endif  // OCULAR_CORE_INCREMENTAL_H_
