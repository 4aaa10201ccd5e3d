#ifndef OCULAR_SERVING_UPDATER_H_
#define OCULAR_SERVING_UPDATER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/fold_in.h"
#include "serving/registry.h"

namespace ocular {

/// \brief What one applied `update` published.
struct UpdateOutcome {
  uint32_t num_users = 0;   ///< users of the published model
  uint32_t num_items = 0;   ///< items of the published model
  uint32_t sweeps_run = 0;  ///< refresh rounds (0 for a sharded refresh)
  bool converged = false;   ///< sharded: always; monolithic: never tested
  bool sharded = false;     ///< a shardset refreshed by fold-in
  uint32_t shards_touched = 0;   ///< sharded: shard files republished
  uint32_t users_refreshed = 0;  ///< sharded: users folded in afresh
};

/// \brief What Updater::RecoverJournal did for one model at startup
/// (all zero: no journal, or an empty one).
struct JournalRecoveryStats {
  /// Committed updates whose deltas were re-merged into the training
  /// base (the --datasets CSV is the original snapshot).
  uint64_t applied_merged = 0;
  /// A pending update whose rename never happened was replayed now.
  bool replayed_pending = false;
  /// A pending update had already published; only its commit was added.
  bool healed_commit = false;
  /// A torn/corrupt tail record was discarded (a crash mid-append).
  bool torn_tail = false;
};

/// \brief The update pipeline behind the daemon's `update` verb, and the
/// startup journal recovery that makes every acknowledged update survive
/// a crash. A monolithic `.oclr` store gets a journaled local refresh
/// (RefreshModel in core/incremental.h) that may grow the catalog: one
/// private copy of the factors, `sweeps` rounds of block updates on the
/// touched items and then the touched users, every other row unchanged.
/// A `.shardset` gets a fold-in refresh of the touched users against its
/// fixed item factors, rewriting only their shards, with no growth and
/// no journal.
///
/// Every file either path writes (artifact, shard file, manifest) is
/// published the same way: write `<file>.update.tmp`, fsync, verify-open
/// (factor files), rename, fsync the directory. A directory-sync failure
/// after the rename counts as published: readers already see the file.
/// The monolithic artifact's verified mapping becomes the new registry
/// generation as is (ModelRegistry::Adopt), so it is verified once.
/// Updates and recovery serialize on one mutex that readers never take;
/// the result is swapped in as a new registry generation. Thread-safe.
class Updater {
 public:
  /// \brief Updates the models of `registry` (not owned; must outlive the
  /// updater); sharded refreshes solve users with `fold_in`.
  Updater(ModelRegistry* registry, FoldInOptions fold_in);

  /// \brief Applies `adds` ([user, item] pairs) to model `model_name` and
  /// publishes the result. A monolithic model grows to at least
  /// `num_users` x `num_items` and to cover every id, and refreshes its
  /// touched rows for `sweeps` rounds with expansion `seed` (0 =
  /// shape-derived). Requires a bound dataset. An id of UINT32_MAX, or a
  /// shape whose factors exceed physical memory, is refused before
  /// anything is allocated or journaled.
  Result<UpdateOutcome> Apply(
      const std::string& model_name,
      const std::vector<std::pair<uint32_t, uint32_t>>& adds,
      uint32_t num_users, uint32_t num_items, uint32_t sweeps, uint64_t seed);

  /// \brief Replays `<model>.update.journal` against the freshly loaded
  /// model: re-merges every committed update's deltas into the bound
  /// training matrix, and resolves a trailing pending record by artifact
  /// fingerprint (replay it if its rename never happened, else heal the
  /// missing commit). Call once per model after registry load and BEFORE
  /// serving; without a journal it is a no-op. Requires a bound dataset
  /// when the journal has records.
  Result<JournalRecoveryStats> RecoverJournal(const std::string& model_name);

  /// \brief Updates published by Apply or by a journal replay.
  uint64_t updates() const { return updates_.load(std::memory_order_relaxed); }
  /// \brief Committed journal records re-merged by RecoverJournal.
  uint64_t journal_recovered() const {
    return journal_recovered_.load(std::memory_order_relaxed);
  }
  /// \brief Pending journal records replayed by RecoverJournal.
  uint64_t journal_replays() const {
    return journal_replays_.load(std::memory_order_relaxed);
  }

 private:
  using Adds = std::vector<std::pair<uint32_t, uint32_t>>;

  Result<UpdateOutcome> ApplySharded(const ServableModel& model,
                                     const std::string& model_name,
                                     const Adds& adds, uint32_t num_users,
                                     uint32_t num_items);
  Result<UpdateOutcome> RefreshAndPublish(
      const ServableModel& model, const std::string& model_name,
      const std::shared_ptr<const CsrMatrix>& updated_train, const Adds& adds,
      uint32_t sweeps, uint64_t seed, bool* published);

  ModelRegistry* registry_;
  FoldInOptions fold_in_;
  std::mutex mu_;  // serializes Apply and RecoverJournal
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> journal_recovered_{0};
  std::atomic<uint64_t> journal_replays_{0};
};

}  // namespace ocular

#endif  // OCULAR_SERVING_UPDATER_H_
