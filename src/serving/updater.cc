#include "serving/updater.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>

#include "common/fault.h"
#include "common/fs_util.h"
#include "core/incremental.h"
#include "core/model_shard.h"
#include "core/model_store.h"
#include "serving/journal.h"
#include "sparse/coo.h"

namespace ocular {

namespace {

// Refuses a model shape whose factor matrices ((users + items) x k
// doubles) exceed this machine's physical memory. Checked before anything
// is allocated or journaled: the refresh would otherwise die of
// std::bad_alloc (an abort under ASan) after the record was journaled,
// and every restart would replay it and die again.
Status CheckShapeFits(uint64_t users, uint64_t items, uint32_t k) {
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page_bytes = ::sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || page_bytes <= 0 || k == 0) return Status::OK();
  const uint64_t physical =
      static_cast<uint64_t>(pages) * static_cast<uint64_t>(page_bytes);
  const uint64_t row_bytes = uint64_t{k} * sizeof(double);
  if (users + items <= physical / row_bytes) return Status::OK();
  return Status::InvalidArgument(
      "update shape " + std::to_string(users) + " x " +
      std::to_string(items) + " at k=" + std::to_string(k) +
      " needs more factor memory than this machine's " +
      std::to_string(physical) + " bytes");
}

// `base` ∪ the adds of every delta, shaped to cover the base, each
// delta's dims, and every added id. Finalize sorts and deduplicates, so
// the merge is order-insensitive and idempotent: re-merging a recovered
// delta yields the same canonical matrix. A shape whose k-dimensional
// factors could not fit in memory is refused before anything is built.
Result<std::shared_ptr<const CsrMatrix>> MergeDeltas(
    const CsrMatrix& base, std::span<const UpdateRecord> deltas, uint32_t k) {
  uint64_t users = base.num_rows();
  uint64_t items = base.num_cols();
  size_t nnz = base.nnz();
  for (const UpdateRecord& delta : deltas) {
    users = std::max<uint64_t>(users, delta.num_users);
    items = std::max<uint64_t>(items, delta.num_items);
    nnz += delta.adds.size();
    for (auto [u, i] : delta.adds) {
      // The shape is max id + 1, so UINT32_MAX would wrap it to 0: the
      // CSR rows shift or the refresh reads past the item factors.
      if (u == UINT32_MAX || i == UINT32_MAX) {
        return Status::InvalidArgument("add (" + std::to_string(u) + ", " +
                                       std::to_string(i) +
                                       ") has an id past 4294967294");
      }
      users = std::max<uint64_t>(users, uint64_t{u} + 1);
      items = std::max<uint64_t>(items, uint64_t{i} + 1);
    }
  }
  OCULAR_RETURN_IF_ERROR(CheckShapeFits(users, items, k));
  CooBuilder coo;
  coo.Reserve(nnz);
  for (uint32_t u = 0; u < base.num_rows(); ++u) {
    for (uint32_t i : base.Row(u)) coo.Add(u, i);
  }
  for (const UpdateRecord& delta : deltas) {
    for (auto [u, i] : delta.adds) coo.Add(u, i);
  }
  OCULAR_ASSIGN_OR_RETURN(auto entries,
                          coo.Finalize(static_cast<uint32_t>(users),
                                       static_cast<uint32_t>(items)));
  return std::make_shared<const CsrMatrix>(CsrMatrix::FromCoo(entries));
}

// The durable publish of one file: `write` fills `<path>.update.tmp`,
// which is fsynced, verify-opened into `*verified` (every section
// checksum; factor files only — pass nullptr otherwise), and durably
// renamed over `path`. The verified mapping follows the inode through
// the rename, so it serves `path` without a second open. OK means
// published: the tmp is gone, and a failed directory sync after the
// rename is only logged. Any failure before the rename removes the tmp,
// leaves `path` untouched and `*verified` not open.
Status PublishFile(const std::string& path,
                   const std::function<Status(const std::string&)>& write,
                   ModelStore* verified) {
  const std::string tmp = path + ".update.tmp";
  Status status = write(tmp);
  if (status.ok()) status = fs::FsyncFile(tmp);
  if (status.ok() && verified != nullptr) {
    if (auto opened = ModelStore::Open(tmp); opened.ok()) {
      *verified = std::move(opened).value();
    } else {
      status = Status::IOError(tmp + " failed verification: " +
                               opened.status().ToString());
    }
  }
  if (status.ok()) {
    status = fs::DurableRename(tmp, path);
    if (status.ok() || ::access(tmp.c_str(), F_OK) != 0) {
      if (!status.ok()) {
        std::fprintf(stderr, "published %s but directory sync failed: %s\n",
                     path.c_str(), status.ToString().c_str());
      }
      if (verified != nullptr) verified->set_path(path);
      return Status::OK();
    }
  }
  if (verified != nullptr) *verified = ModelStore();
  ::remove(tmp.c_str());
  return status;
}

}  // namespace

Updater::Updater(ModelRegistry* registry, FoldInOptions fold_in)
    : registry_(registry), fold_in_(fold_in) {}

Result<UpdateOutcome> Updater::ApplySharded(const ServableModel& model,
                                            const std::string& model_name,
                                            const Adds& adds,
                                            uint32_t num_users,
                                            uint32_t num_items) {
  // A sharded binding never grows online: the shard ranges and the shared
  // item factors are fixed at save time, so an id past either dimension
  // needs an offline retrain + reshard (`ocular_cli shard`), not an
  // update.
  bool grows = num_users > model.num_users() || num_items > model.num_items();
  for (auto [u, i] : adds) {
    grows = grows || u >= model.num_users() || i >= model.num_items();
  }
  if (grows) {
    return Status::FailedPrecondition(
        "sharded model '" + model_name + "' (" +
        std::to_string(model.num_users()) + " x " +
        std::to_string(model.num_items()) +
        ") cannot grow online; retrain and reshard offline (ocular_cli "
        "shard)");
  }
  if (model.fold_in == nullptr) {
    return Status::FailedPrecondition(
        "sharded update refreshes users by fold-in, but model '" + model_name +
        "' has no fold-in context (not an OCuLaR probability model)");
  }
  if (fault::Maybe("update.apply")) return fault::InjectedError("update.apply");

  // Merge the deltas into a private copy of the training matrix: a
  // touched user's fold-in history is its FULL updated row (Section V's
  // new-user solve against fixed item factors), and the republish rebinds
  // the merged matrix as the exclusion source.
  UpdateRecord delta;
  delta.num_users = model.num_users();
  delta.num_items = model.num_items();
  delta.adds = adds;
  OCULAR_ASSIGN_OR_RETURN(auto merged,
                          MergeDeltas(*model.train, {&delta, 1}, model.k()));

  std::vector<uint32_t> touched_users;
  touched_users.reserve(adds.size());
  for (auto [u, i] : adds) touched_users.push_back(u);
  std::sort(touched_users.begin(), touched_users.end());
  touched_users.erase(
      std::unique(touched_users.begin(), touched_users.end()),
      touched_users.end());

  const FoldInContext& ctx = *model.fold_in;
  FoldInWorkspace fold_ws;
  ShardSetManifest manifest = model.manifest;
  uint32_t shards_touched = 0;
  size_t next = 0;
  for (uint32_t s = 0;
       s < model.shard_map.num_shards() && next < touched_users.size(); ++s) {
    const uint32_t begin = model.shard_map.begin(s);
    const uint32_t end = model.shard_map.end(s);
    if (touched_users[next] >= end) continue;

    // Copy-on-write per shard: the live mapping is never written. Only
    // shards owning a touched user are copied, folded, and rewritten —
    // the untouched siblings keep their files, fingerprints and mappings.
    ConstMatrixView rows = model.shard_stores[s]->user_factors();
    DenseMatrix block(rows.rows(), rows.cols());
    std::copy_n(rows.data(), size_t{rows.rows()} * rows.cols(), block.data());
    for (; next < touched_users.size() && touched_users[next] < end; ++next) {
      const uint32_t u = touched_users[next];
      const std::span<const uint32_t> history = merged->Row(u);
      fold_ws.Reserve(ctx.dims(), history.size());
      OCULAR_RETURN_IF_ERROR(FoldInUserInto(ctx, history, fold_in_, &fold_ws));
      std::copy(fold_ws.f.begin(), fold_ws.f.end(),
                block.Row(u - begin).begin());
    }

    const std::string shard_path =
        ShardSetResolve(model.model_path, manifest.shards[s].file);
    ModelStore verified;
    OCULAR_RETURN_IF_ERROR(PublishFile(
        shard_path,
        [&](const std::string& tmp) {
          return SaveShardUserFactors(model.meta(), block, tmp);
        },
        &verified));
    OCULAR_ASSIGN_OR_RETURN(manifest.shards[s].fingerprint,
                            fs::FileFingerprint(shard_path));
    ++shards_touched;
  }

  // Manifest last: readers open either the old consistent set or the new
  // one, never a mix.
  if (shards_touched > 0) {
    OCULAR_RETURN_IF_ERROR(PublishFile(
        model.model_path,
        [&](const std::string& tmp) {
          return SaveShardSetManifest(manifest, tmp);
        },
        nullptr));
  }

  // The per-shard generation swap: Load aliases every untouched member
  // from the serving generation and reopens only the rewritten files.
  OCULAR_RETURN_IF_ERROR(registry_->Load(model_name, model.model_path, merged));
  updates_.fetch_add(1, std::memory_order_relaxed);

  return UpdateOutcome{
      .num_users = model.num_users(),
      .num_items = model.num_items(),
      .converged = true,
      .sharded = true,
      .shards_touched = shards_touched,
      .users_refreshed = static_cast<uint32_t>(touched_users.size())};
}

Result<UpdateOutcome> Updater::RefreshAndPublish(
    const ServableModel& model, const std::string& model_name,
    const std::shared_ptr<const CsrMatrix>& updated_train, const Adds& adds,
    uint32_t sweeps, uint64_t seed, bool* published) {
  *published = false;
  // Copy-on-write: the live mapping is never touched — the update
  // materializes one private copy, refreshes it in place, and publishes
  // the result as a new generation.
  if (fault::Maybe("update.apply")) return fault::InjectedError("update.apply");
  OCULAR_ASSIGN_OR_RETURN(LoadedModel loaded, model.store.MaterializeOcular());

  OcularConfig config = loaded.config;
  config.max_sweeps = sweeps;
  ExpandOptions expand;
  expand.seed = seed;  // 0 = shape-derived stream (see ExpandOptions)
  OCULAR_RETURN_IF_ERROR(
      RefreshModel(&loaded.model, *updated_train, adds, config, expand)
          .status());

  // A crash mid-write can never leave a torn model file behind the
  // running mapping, and a crash right after the ack can never lose the
  // renamed artifact to unflushed page cache.
  ModelStore verified;
  OCULAR_RETURN_IF_ERROR(PublishFile(
      model.model_path,
      [&](const std::string& tmp) {
        return SaveModelBinary(loaded.model, config, tmp);
      },
      &verified));
  *published = true;
  // The same generation swap as SIGHUP reload, on the mapping PublishFile
  // verified: in-flight requests drain on their leased mapping, workers
  // re-resolve lock-free.
  OCULAR_RETURN_IF_ERROR(registry_->Adopt(model_name, model.model_path,
                                          std::move(verified), updated_train));
  updates_.fetch_add(1, std::memory_order_relaxed);

  return UpdateOutcome{.num_users = updated_train->num_rows(),
                       .num_items = updated_train->num_cols(),
                       .sweeps_run = sweeps};
}

Result<UpdateOutcome> Updater::Apply(const std::string& model_name,
                                     const Adds& adds, uint32_t num_users,
                                     uint32_t num_items, uint32_t sweeps,
                                     uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const ServableModel> model = registry_->Get(model_name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + model_name + "'");
  }
  if (model->train == nullptr) {
    return Status::FailedPrecondition(
        "update requires a dataset bound to model '" + model_name +
        "' (--datasets): the interaction deltas extend the training matrix");
  }
  if (model->sharded) {
    // The journal is a single-artifact recovery mechanism keyed on one
    // file fingerprint; sharded updates are instead made durable per
    // shard file, with the manifest republished last.
    return ApplySharded(*model, model_name, adds, num_users, num_items);
  }

  // Write-ahead: the full replay recipe is durable before the refresh
  // starts, so a crash anywhere past this point can be recovered to the
  // exact artifact this call would have published (RecoverJournal). An
  // append failure fails the update — the client's ack must never be
  // backed by nothing but RAM.
  UpdateRecord record;
  record.seed = seed;
  record.num_users = std::max(model->num_users(), num_users);
  record.num_items = std::max(model->num_items(), num_items);
  record.sweeps = sweeps;
  record.adds = adds;
  OCULAR_ASSIGN_OR_RETURN(auto updated_train,
                          MergeDeltas(*model->train, {&record, 1}, model->k()));
  record.num_users = updated_train->num_rows();
  record.num_items = updated_train->num_cols();
  OCULAR_ASSIGN_OR_RETURN(record.base_fingerprint,
                          fs::FileFingerprint(model->model_path));
  UpdateJournal journal;
  OCULAR_RETURN_IF_ERROR(
      journal.Open(UpdateJournal::PathFor(model->model_path)));
  OCULAR_RETURN_IF_ERROR(journal.AppendUpdate(record));

  bool published = false;
  Result<UpdateOutcome> outcome = RefreshAndPublish(
      *model, model_name, updated_train, adds, sweeps, seed, &published);
  // The journal's verdict follows the artifact, not the reply: a failure
  // AFTER the rename still commits (clients will observe the new
  // artifact), a clean failure before it aborts so recovery never replays
  // an update the client saw fail. A failed closing append merely leaves
  // the record pending — the fingerprint check at next start resolves it
  // the right way, so serving continues.
  const Status closing = (outcome.ok() || published) ? journal.AppendCommit()
                                                     : journal.AppendAbort();
  if (!closing.ok()) {
    std::fprintf(stderr, "update journal on '%s': %s\n", model_name.c_str(),
                 closing.ToString().c_str());
  }
  return outcome;
}

Result<JournalRecoveryStats> Updater::RecoverJournal(
    const std::string& model_name) {
  std::lock_guard<std::mutex> lock(mu_);
  JournalRecoveryStats stats;
  std::shared_ptr<const ServableModel> model = registry_->Get(model_name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + model_name + "'");
  }
  const std::string journal_path = UpdateJournal::PathFor(model->model_path);
  OCULAR_ASSIGN_OR_RETURN(UpdateJournal::Plan plan,
                          UpdateJournal::LoadPlan(journal_path));
  stats.torn_tail = plan.torn_tail;
  if (plan.applied.empty() && !plan.has_pending) return stats;
  if (model->train == nullptr) {
    return Status::FailedPrecondition(
        "journal " + journal_path + " has records but model '" + model_name +
        "' has no bound dataset (--datasets): the deltas extend the training "
        "matrix");
  }

  // A trailing record with no commit/abort is the crash window. The
  // artifact fingerprint decides which side of the rename the crash hit:
  // still equal to the record's base means the refresh never published —
  // replay it; moved past it means the rename landed and only the commit
  // record is missing — the adds are law, heal the journal.
  bool replay_pending = false;
  if (plan.has_pending) {
    OCULAR_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                            fs::FileFingerprint(model->model_path));
    if (fingerprint == plan.pending.base_fingerprint) {
      replay_pending = true;
    } else {
      stats.healed_commit = true;
    }
  }
  stats.applied_merged = plan.applied.size() + (stats.healed_commit ? 1 : 0);

  // Re-merge every applied record's deltas into the training base: the
  // --datasets CSV is the original snapshot and knows nothing about
  // updates applied by previous incarnations. A replayed record merges on
  // top of them, which is the matrix the crashed process was refreshing.
  if (plan.has_pending) plan.applied.push_back(plan.pending);
  OCULAR_ASSIGN_OR_RETURN(
      auto merged, MergeDeltas(*model->train, plan.applied, model->k()));

  if (replay_pending) {
    // Run the exact pipeline the crashed process was running — same adds,
    // same dims, same sweeps, same seed, same base artifact — so the
    // recovered generation is bit-identical to what the lost ack promised.
    bool published = false;
    Result<UpdateOutcome> outcome =
        RefreshAndPublish(*model, model_name, merged, plan.pending.adds,
                          plan.pending.sweeps, plan.pending.seed, &published);
    if (!outcome.ok() && !published) {
      // Leave the record pending: the next start retries the replay. The
      // caller decides whether to serve without the promised update.
      return outcome.status();
    }
    stats.replayed_pending = true;
    journal_replays_.fetch_add(1, std::memory_order_relaxed);
  } else {
    OCULAR_RETURN_IF_ERROR(
        registry_->Load(model_name, model->model_path, merged));
  }
  journal_recovered_.fetch_add(stats.applied_merged,
                               std::memory_order_relaxed);
  if (plan.has_pending) {
    UpdateJournal journal;
    OCULAR_RETURN_IF_ERROR(journal.Open(journal_path));
    OCULAR_RETURN_IF_ERROR(journal.AppendCommit());
  }
  return stats;
}

}  // namespace ocular
