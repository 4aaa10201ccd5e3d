#include "serving/registry.h"

#include <algorithm>
#include <utility>

namespace ocular {

namespace {

/// Builds the fold-in serving context shared by both binding kinds.
/// `user_factors` feeds the expected-affinity popularity fallback when no
/// dataset is bound (a sharded binding passes the items file's empty user
/// view — its fallback ranking degrades to deterministic index order
/// unless a dataset supplies column degrees).
void AttachFoldIn(ServableModel* servable, ConstMatrixView user_factors,
                  ConstMatrixView items, ConstMatrixView items_t) {
  const BinaryModelMeta& meta = servable->meta();
  if (meta.kind != BinaryModelKind::kOcularProbability) return;
  OcularConfig config;
  config.use_biases = meta.use_biases;
  config.k = meta.k - (meta.use_biases ? 2 : 0);
  config.lambda = meta.lambda;
  config.variant = meta.relative_variant ? OcularVariant::kRelative
                                         : OcularVariant::kAbsolute;
  std::vector<double> popularity;
  if (servable->train != nullptr) {
    // Per-item interaction counts of the bound dataset — the natural
    // deterministic fallback ranking for signal-free histories.
    popularity.resize(servable->num_items(), 0.0);
    for (uint32_t c : servable->train->col_idx()) popularity[c] += 1.0;
  }
  auto ctx = MakeFoldInContext(user_factors, items, items_t, config,
                               popularity);
  // Fold-in is an optional capability: a store whose meta cannot seed a
  // valid solver config still serves stored users.
  if (ctx.ok()) {
    servable->fold_in = std::make_unique<FoldInContext>(std::move(ctx).value());
  }
}

/// Builds a monolithic servable around `store`, opened from `model_path`.
Result<std::shared_ptr<const ServableModel>> BuildServable(
    const std::string& name, const std::string& model_path, ModelStore store,
    std::shared_ptr<const CsrMatrix> train) {
  if (train != nullptr && train->num_cols() > store.num_items()) {
    return Status::InvalidArgument(
        "training matrix has more items than model '" + name + "'");
  }
  auto servable = std::make_shared<ServableModel>();
  servable->name = name;
  servable->model_path = model_path;
  servable->store = std::move(store);
  // Constructed after the store reaches its final address.
  servable->recommender = std::make_unique<StoreRecommender>(servable->store);
  servable->train = std::move(train);
  AttachFoldIn(servable.get(), servable->store.user_factors(),
               servable->store.item_factors(),
               servable->store.item_factors_t());
  return std::shared_ptr<const ServableModel>(std::move(servable));
}

/// Opens (and verifies) the store at `model_path`, then builds its
/// monolithic servable.
Result<std::shared_ptr<const ServableModel>> OpenServable(
    const std::string& name, const std::string& model_path,
    std::shared_ptr<const CsrMatrix> train) {
  OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(model_path));
  return BuildServable(name, model_path, std::move(store), std::move(train));
}

/// Builds a sharded servable from `manifest_path`, aliasing every member
/// store of `previous` (same file name, range and fingerprint, on-disk
/// bytes still matching) instead of remapping it. `*touched_out` counts
/// the members actually (re)opened — 0 means the set is byte-identical to
/// the previous generation and the caller may skip publishing.
Result<std::shared_ptr<const ServableModel>> BuildShardedServable(
    const std::string& name, const std::string& manifest_path,
    std::shared_ptr<const CsrMatrix> train,
    const std::shared_ptr<const ServableModel>& previous,
    uint32_t* touched_out) {
  OCULAR_ASSIGN_OR_RETURN(ShardSetManifest manifest,
                          LoadShardSetManifest(manifest_path));
  OCULAR_ASSIGN_OR_RETURN(ShardMap map, manifest.Map());
  if (train != nullptr && train->num_cols() > manifest.num_items) {
    return Status::InvalidArgument(
        "training matrix has more items than model '" + name + "'");
  }
  const ServableModel* prev =
      previous != nullptr && previous->sharded ? previous.get() : nullptr;
  uint32_t touched = 0;

  auto servable = std::make_shared<ServableModel>();
  servable->name = name;
  servable->model_path = manifest_path;
  servable->sharded = true;
  servable->train = std::move(train);

  // Every member is fingerprint-checked against the manifest even when
  // reused — a torn shardset (manifest republished, member write lost)
  // must refuse to load rather than serve a mix of generations.
  OCULAR_RETURN_IF_ERROR(CheckShardSetMember(
      manifest_path, manifest.items_file, manifest.items_fingerprint));
  if (prev != nullptr && prev->manifest.items_file == manifest.items_file &&
      prev->manifest.items_fingerprint == manifest.items_fingerprint) {
    servable->items_store = prev->items_store;
  } else {
    OCULAR_ASSIGN_OR_RETURN(
        ModelStore items,
        ModelStore::Open(ShardSetResolve(manifest_path, manifest.items_file)));
    OCULAR_RETURN_IF_ERROR(ValidateItemsHeader(manifest, items));
    servable->items_store =
        std::make_shared<const ModelStore>(std::move(items));
    ++touched;
  }

  servable->shard_stores.reserve(manifest.shards.size());
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardSetEntry& e = manifest.shards[s];
    OCULAR_RETURN_IF_ERROR(
        CheckShardSetMember(manifest_path, e.file, e.fingerprint));
    const bool reusable = prev != nullptr &&
                          s < prev->manifest.shards.size() &&
                          prev->manifest.shards[s].file == e.file &&
                          prev->manifest.shards[s].fingerprint ==
                              e.fingerprint &&
                          prev->manifest.shards[s].user_begin == e.user_begin &&
                          prev->manifest.shards[s].user_end == e.user_end;
    if (reusable) {
      servable->shard_stores.push_back(prev->shard_stores[s]);
      continue;
    }
    OCULAR_ASSIGN_OR_RETURN(
        ModelStore shard,
        ModelStore::Open(ShardSetResolve(manifest_path, e.file)));
    OCULAR_RETURN_IF_ERROR(ValidateShardHeader(manifest, s, shard));
    servable->shard_stores.push_back(
        std::make_shared<const ModelStore>(std::move(shard)));
    ++touched;
  }

  servable->manifest = std::move(manifest);
  servable->shard_map = std::move(map);
  std::vector<const ModelStore*> shard_ptrs;
  shard_ptrs.reserve(servable->shard_stores.size());
  for (const auto& s : servable->shard_stores) shard_ptrs.push_back(s.get());
  servable->recommender = std::make_unique<ShardedStoreRecommender>(
      servable->shard_map, *servable->items_store, std::move(shard_ptrs));
  AttachFoldIn(servable.get(), servable->items_store->user_factors(),
               servable->items_store->item_factors(),
               servable->items_store->item_factors_t());
  if (touched_out != nullptr) *touched_out = touched;
  return std::shared_ptr<const ServableModel>(std::move(servable));
}

}  // namespace

Status ModelRegistry::Load(const std::string& name,
                           const std::string& model_path,
                           std::shared_ptr<const CsrMatrix> train) {
  if (name.empty()) return Status::InvalidArgument("model name is empty");
  std::shared_ptr<const ServableModel> servable;
  uint32_t touched = 1;
  if (IsShardSetFile(model_path)) {
    OCULAR_ASSIGN_OR_RETURN(
        servable, BuildShardedServable(name, model_path, std::move(train),
                                       Get(name), &touched));
  } else {
    OCULAR_ASSIGN_OR_RETURN(servable,
                            OpenServable(name, model_path, std::move(train)));
  }
  // One generation step per member actually reopened — the per-shard
  // swap. An explicit Load always publishes (the caller may be binding a
  // new dataset), so even a byte-identical shardset steps once.
  Publish(name, std::move(servable), std::max(touched, 1u));
  return Status::OK();
}

Status ModelRegistry::Adopt(const std::string& name,
                            const std::string& model_path, ModelStore store,
                            std::shared_ptr<const CsrMatrix> train) {
  if (name.empty()) return Status::InvalidArgument("model name is empty");
  OCULAR_ASSIGN_OR_RETURN(
      auto servable,
      BuildServable(name, model_path, std::move(store), std::move(train)));
  Publish(name, std::move(servable), 1);
  return Status::OK();
}

void ModelRegistry::Publish(const std::string& name,
                            std::shared_ptr<const ServableModel> servable,
                            uint32_t steps) {
  std::lock_guard<std::mutex> lock(mu_);
  models_[name] = std::move(servable);
  generation_.fetch_add(steps, std::memory_order_acq_rel);
}

std::shared_ptr<const ServableModel> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

Status ModelRegistry::ReloadAll() {
  // Snapshot under the lock, re-open outside it (opens touch the
  // filesystem), publish each replacement atomically.
  std::vector<std::shared_ptr<const ServableModel>> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current.reserve(models_.size());
    for (const auto& [name, servable] : models_) current.push_back(servable);
  }
  Status first_error = Status::OK();
  for (const auto& old_model : current) {
    uint32_t touched = 1;
    auto rebuilt =
        old_model->sharded
            ? BuildShardedServable(old_model->name, old_model->model_path,
                                   old_model->train, old_model, &touched)
            : OpenServable(old_model->name, old_model->model_path,
                           old_model->train);
    if (!rebuilt.ok()) {
      if (first_error.ok()) first_error = rebuilt.status();
      continue;  // keep serving the previous version
    }
    if (old_model->sharded && touched == 0) {
      // Every member is byte-identical to what is already serving: the
      // reload is a no-op for this name, so leave the generation alone
      // and spare the workers a lease refresh.
      continue;
    }
    Publish(old_model->name, std::move(rebuilt).value(), touched);
  }
  return first_error;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, servable] : models_) names.push_back(name);
  return names;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

}  // namespace ocular
