#ifndef OCULAR_SERVING_REGISTRY_H_
#define OCULAR_SERVING_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/fold_in.h"
#include "core/model_shard.h"
#include "serving/sharded_store_recommender.h"
#include "serving/store_recommender.h"
#include "sparse/csr.h"

namespace ocular {

/// \brief One resident servable model: an mmapped ModelStore (or, for a
/// `*.shardset` binding, a set of them), its zero-copy recommender, and
/// the optional training matrix whose rows are excluded from that user's
/// recommendations (the Section IV-C "recommend unknowns only" rule).
///
/// Immutable once published: a reload builds a NEW ServableModel and swaps
/// the registry pointer, so requests already holding a shared_ptr keep
/// serving the old mapping until they drain — at which point the last
/// reference unmaps it. For a sharded binding the member stores are
/// shared_ptrs, and a rebuild ALIASES every untouched member from the
/// previous generation instead of remapping it — that is the per-shard
/// generation swap: republishing one shard costs one mmap, not N.
struct ServableModel {
  /// Registry key the model is served under.
  std::string name;
  /// File the binding was opened from (re-opened on reload): an `.oclr`
  /// store, or a `.shardset` manifest when `sharded` is true.
  std::string model_path;
  /// The open mapping (monolithic bindings only; not open when sharded).
  ModelStore store;
  /// True when `model_path` is a shardset manifest and the sharded
  /// members below are live instead of `store`.
  bool sharded = false;
  /// Parsed manifest of the bound shardset (sharded only).
  ShardSetManifest manifest;
  /// user → shard routing of the bound shardset (sharded only).
  ShardMap shard_map;
  /// Shared items file: item factors + serving layout, mapped once for
  /// all shards (sharded only).
  std::shared_ptr<const ModelStore> items_store;
  /// Per-shard user-factor stores, aligned with manifest.shards. Entries
  /// are shared with the previous generation when their fingerprint did
  /// not change (sharded only).
  std::vector<std::shared_ptr<const ModelStore>> shard_stores;
  /// Zero-copy recommender over the store(s): StoreRecommender for a
  /// monolithic binding, ShardedStoreRecommender for a shardset.
  /// Held by pointer so the views stay valid when ServableModel moves.
  std::unique_ptr<Recommender> recommender;
  /// Per-user exclusion rows (nullptr = no exclusions). Shared with the
  /// reloaded generations of the model — only the factor file is re-opened
  /// on reload, the interaction history is not re-read.
  std::shared_ptr<const CsrMatrix> train;
  /// Fold-in serving state over the store's mmapped factor views, built
  /// once per published generation (nullptr for stores that are not
  /// OCuLaR probability models — history requests against those fail
  /// with FailedPrecondition). The popularity fallback ranks by `train`
  /// column degrees when a dataset is bound, else by expected affinity.
  /// Declared after `store` so its views die before the mapping does.
  std::unique_ptr<FoldInContext> fold_in;

  /// \brief The exclusion row for `u` (empty without a matrix or for users
  /// beyond it).
  std::span<const uint32_t> ExcludeRow(uint32_t u) const {
    if (train == nullptr || u >= train->num_rows()) return {};
    return train->Row(u);
  }

  // Binding-agnostic accessors: the daemon and CLI read model shape
  // through these so one request path serves both monolithic stores and
  // shardsets.

  /// Users served by this binding (all shards combined when sharded).
  uint32_t num_users() const {
    return sharded ? shard_map.num_users() : store.num_users();
  }
  /// Items of the (shared) item factors.
  uint32_t num_items() const {
    return sharded ? items_store->num_items() : store.num_items();
  }
  /// Factor dimension.
  uint32_t k() const { return sharded ? items_store->k() : store.k(); }
  /// Header metadata (the shared items file's header when sharded).
  const BinaryModelMeta& meta() const {
    return sharded ? items_store->meta() : store.meta();
  }
  /// Bytes mapped across every member store.
  size_t mapped_bytes() const {
    if (!sharded) return store.mapped_bytes();
    size_t total = items_store->mapped_bytes();
    for (const auto& s : shard_stores) total += s->mapped_bytes();
    return total;
  }
  /// Shards of the binding (1 for a monolithic store).
  uint32_t num_shards() const { return sharded ? shard_map.num_shards() : 1; }
  /// The shard serving `u` (0 for a monolithic store). Precondition:
  /// u < num_users().
  uint32_t shard_of(uint32_t u) const {
    return sharded ? shard_map.shard_of(u) : 0;
  }
};

/// \brief Named collection of servable models with atomic hot-reload —
/// the model-management half of the serving daemon (serving/daemon.h).
///
/// Readers call Get() and hold the returned shared_ptr for the duration of
/// one request; Load()/ReloadAll() publish replacement models by swapping
/// the map entry under a mutex. No request is ever served from a
/// half-loaded model, and an old model's mapping is retired exactly when
/// its last in-flight request completes (shared_ptr drain). All methods
/// are thread-safe.
class ModelRegistry {
 public:
  /// \brief Opens `model_path` — a binary v2 store, or a `*.shardset`
  /// manifest (sniffed via IsShardSetFile) — and publishes it as `name`,
  /// replacing any previous model of that name. `train` supplies per-user
  /// exclusion rows (pass nullptr for none). On failure the previous model
  /// (if any) keeps serving. Re-loading a shardset name reuses every
  /// member store whose manifest fingerprint is unchanged, so publishing
  /// one rewritten shard remaps only that shard; generation() advances by
  /// the number of members actually reopened.
  Status Load(const std::string& name, const std::string& model_path,
              std::shared_ptr<const CsrMatrix> train = nullptr);

  /// \brief Publishes `store`, already opened (and checksum-verified)
  /// from the file now at `model_path`, as the monolithic model `name` —
  /// what Load(name, model_path, train) does after its own open, without
  /// mapping and verifying the file a second time. The update pipeline
  /// hands over the mapping it verified before renaming the file into
  /// place; reloads re-open from `model_path`.
  Status Adopt(const std::string& name, const std::string& model_path,
               ModelStore store, std::shared_ptr<const CsrMatrix> train);

  /// \brief The current model for `name`, or nullptr when absent. The
  /// returned pointer pins the model (and its mapping) until released.
  std::shared_ptr<const ServableModel> Get(const std::string& name) const;

  /// \brief Re-opens every model from its recorded path and swaps each
  /// atomically — the SIGHUP hot-reload. A model whose file no longer
  /// opens keeps its previous version; the first such error is returned
  /// (after attempting every model). Sharded bindings reload
  /// incrementally: members whose manifest fingerprint is unchanged are
  /// shared with the outgoing generation, and a shardset with NO changed
  /// members is left untouched entirely (no swap, no generation bump).
  Status ReloadAll();

  /// \brief Registered model names, sorted.
  std::vector<std::string> Names() const;

  /// \brief Number of registered models.
  size_t size() const;

  /// \brief Monotonic publication counter, bumped on every successful
  /// Load() and on each model swapped by ReloadAll(). Serving workers
  /// cache their Get() leases and re-resolve only when this moves, so
  /// the steady-state request path never touches the registry mutex
  /// while hot reloads still propagate promptly (each worker drains onto
  /// the new generation at its next request).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  /// Swaps `servable` in as `name` and advances generation() by `steps`.
  void Publish(const std::string& name,
               std::shared_ptr<const ServableModel> servable, uint32_t steps);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ServableModel>> models_;
  std::atomic<uint64_t> generation_{1};
};

}  // namespace ocular

#endif  // OCULAR_SERVING_REGISTRY_H_
