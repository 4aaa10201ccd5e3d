#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace ocular {

namespace {

/// Grows `*m` to `rows` rows in place, drawing the new rows from the
/// cold-start distribution.
void GrowRows(DenseMatrix* m, uint32_t rows, double scale, Rng* rng) {
  const uint32_t old_rows = m->rows();
  m->ResizeRows(rows);
  for (uint32_t r = old_rows; r < rows; ++r) {
    for (auto& v : m->Row(r)) v = rng->Uniform(0.0, scale);
  }
}

/// Grows `*model` in place to (num_users, num_items): ExpandModel's
/// stream, new user rows first, then new item rows.
Status GrowModel(OcularModel* model, uint32_t num_users, uint32_t num_items,
                 const ExpandOptions& options) {
  if (num_users < model->num_users() || num_items < model->num_items()) {
    return Status::InvalidArgument(
        "ExpandModel cannot shrink: retrain from scratch instead");
  }
  if (model->k() == 0) {
    return Status::InvalidArgument("model has no factor dimensions");
  }
  const uint64_t seed =
      options.seed != 0
          ? options.seed
          : DeriveExpandSeed(model->num_users(), model->num_items(), num_users,
                             num_items, model->k());
  Rng rng(seed);
  const double scale =
      options.init_scale / std::sqrt(static_cast<double>(model->k()));
  GrowRows(model->mutable_user_factors(), num_users, scale, &rng);
  GrowRows(model->mutable_item_factors(), num_items, scale, &rng);
  return Status::OK();
}

/// Bias extension: rows from `old_users` / `old_items` on must keep the
/// pinned coordinate at exactly 1.
void PinNewBiasCoordinates(OcularModel* model, const OcularConfig& config,
                           uint32_t old_users, uint32_t old_items) {
  if (!config.use_biases) return;
  DenseMatrix& fu = *model->mutable_user_factors();
  for (uint32_t u = old_users; u < fu.rows(); ++u) fu.At(u, config.k + 1) = 1.0;
  DenseMatrix& fi = *model->mutable_item_factors();
  for (uint32_t i = old_items; i < fi.rows(); ++i) fi.At(i, config.k) = 1.0;
}

Status CheckUpdateConfig(const OcularModel& model, const OcularConfig& config) {
  OCULAR_RETURN_IF_ERROR(config.Validate());
  if (config.TotalDims() != model.k()) {
    return Status::InvalidArgument(
        "config dimensions do not match the model being updated");
  }
  return Status::OK();
}

/// The rows an update touches on one side, ascending: the id `side`
/// picks from each add, plus the new rows [old_rows, rows).
template <typename Side>
std::vector<uint32_t> TouchedRows(
    std::span<const std::pair<uint32_t, uint32_t>> adds, Side side,
    uint32_t old_rows, uint32_t rows) {
  std::vector<uint32_t> out;
  out.reserve(adds.size() + (rows - old_rows));
  for (const auto& add : adds) {
    if (side(add) < old_rows) out.push_back(side(add));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (uint32_t r = old_rows; r < rows; ++r) out.push_back(r);
  return out;
}

}  // namespace

uint64_t DeriveExpandSeed(uint32_t old_users, uint32_t old_items,
                          uint32_t num_users, uint32_t num_items,
                          uint32_t k) {
  // splitmix64-style finalization of the packed shape transition: any
  // change to either shape lands in a different stream, and repeating the
  // same transition (replay) lands in the same one.
  uint64_t h = (static_cast<uint64_t>(old_users) << 32) | old_items;
  h ^= ((static_cast<uint64_t>(num_users) << 32) | num_items) +
       0x9e3779b97f4a7c15ULL + k;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  // Stay clear of 0 so a derived seed can never alias the "derive me"
  // sentinel when fed back through ExpandOptions.
  return h == 0 ? 0x9e3779b97f4a7c15ULL : h;
}

Result<OcularModel> ExpandModel(const OcularModel& model, uint32_t num_users,
                                uint32_t num_items,
                                const ExpandOptions& options) {
  OcularModel grown = model;
  OCULAR_RETURN_IF_ERROR(GrowModel(&grown, num_users, num_items, options));
  return grown;
}

Result<RefreshStats> RefreshModel(
    OcularModel* model, const CsrMatrix& interactions,
    std::span<const std::pair<uint32_t, uint32_t>> adds,
    const OcularConfig& config, const ExpandOptions& options) {
  OCULAR_RETURN_IF_ERROR(CheckUpdateConfig(*model, config));
  for (auto [u, i] : adds) {
    if (u >= interactions.num_rows() || i >= interactions.num_cols()) {
      return Status::InvalidArgument(
          "add (" + std::to_string(u) + ", " + std::to_string(i) +
          ") lies outside the interaction matrix");
    }
  }
  const uint32_t old_users = model->num_users();
  const uint32_t old_items = model->num_items();
  OCULAR_RETURN_IF_ERROR(GrowModel(model, interactions.num_rows(),
                                   interactions.num_cols(), options));
  PinNewBiasCoordinates(model, config, old_users, old_items);
  DenseMatrix& fu = *model->mutable_user_factors();
  DenseMatrix& fi = *model->mutable_item_factors();

  const std::vector<uint32_t> items = TouchedRows(
      adds, [](const auto& add) { return add.second; }, old_items, fi.rows());
  const std::vector<uint32_t> users = TouchedRows(
      adds, [](const auto& add) { return add.first; }, old_users, fu.rows());

  // The users of each touched item, ascending (the order the trainer's
  // transpose gives them), from one scan of the matrix.
  constexpr uint32_t kUntouched = UINT32_MAX;
  std::vector<uint32_t> slot(fi.rows(), kUntouched);
  for (uint32_t s = 0; s < items.size(); ++s) slot[items[s]] = s;
  std::vector<std::vector<uint32_t>> item_users(items.size());
  for (uint32_t u = 0; u < interactions.num_rows(); ++u) {
    for (uint32_t i : interactions.Row(u)) {
      if (slot[i] != kUntouched) item_users[slot[i]].push_back(u);
    }
  }

  // R-OCuLaR: an item block weighs each of its positives by its user's
  // w_u, a user block all of its positives by its own.
  const bool relative = config.variant == OcularVariant::kRelative;
  const auto user_weight = [&](uint32_t u) {
    return relative ? internal::RelativeUserWeight(interactions.num_cols(),
                                                   interactions.RowDegree(u))
                    : 1.0;
  };
  std::vector<std::vector<double>> item_weights(items.size());
  size_t max_neighbors = 0;
  for (size_t s = 0; s < items.size(); ++s) {
    if (relative) {
      for (uint32_t u : item_users[s]) {
        item_weights[s].push_back(user_weight(u));
      }
    }
    max_neighbors = std::max(max_neighbors, item_users[s].size());
  }
  for (uint32_t u : users) {
    max_neighbors =
        std::max<size_t>(max_neighbors, interactions.RowDegree(u));
  }
  internal::BlockWorkspace ws;
  ws.Reserve(fu.cols(), max_neighbors);
  std::vector<double> old(fu.cols());
  // One block: config.block_steps projected-gradient steps on `row`, then
  // `sums` (the column sums of the row's own side) moves by the row's
  // change — subtract the old row, add the new one.
  const auto refresh_row = [&](std::span<double> row,
                               std::span<const uint32_t> neighbors,
                               ConstMatrixView other,
                               std::span<const double> other_sums,
                               double pos_weight,
                               std::span<const double> neighbor_weights,
                               int frozen_coord, double* step_hint,
                               std::vector<double>* sums) {
    std::copy(row.begin(), row.end(), old.begin());
    ws.Invalidate();
    for (uint32_t step = 0; step < config.block_steps; ++step) {
      internal::ProjectedGradientStep(row, neighbors, other, other_sums,
                                      config.lambda, pos_weight,
                                      neighbor_weights, config, frozen_coord,
                                      &ws, step_hint);
    }
    for (size_t c = 0; c < row.size(); ++c) (*sums)[c] += row[c] - old[c];
  };
  // Per-row line-search state, carried across rounds as FitFrom carries
  // it across sweeps.
  std::vector<double> item_steps(items.size(), 0.0);
  std::vector<double> user_steps(users.size(), 0.0);
  // Coordinates pinned at 1 by the bias extension (-1: none).
  const int item_frozen = config.use_biases ? static_cast<int>(config.k) : -1;
  const int user_frozen =
      config.use_biases ? static_cast<int>(config.k) + 1 : -1;

  std::vector<double> user_sums = fu.ColumnSums();
  std::vector<double> item_sums = fi.ColumnSums();
  for (uint32_t round = 0; round < config.max_sweeps; ++round) {
    for (size_t s = 0; s < items.size(); ++s) {
      refresh_row(fi.Row(items[s]), item_users[s], fu, user_sums, 1.0,
                  item_weights[s], item_frozen, &item_steps[s], &item_sums);
    }
    for (size_t s = 0; s < users.size(); ++s) {
      const uint32_t u = users[s];
      refresh_row(fu.Row(u), interactions.Row(u), fi, item_sums,
                  user_weight(u), {}, user_frozen, &user_steps[s],
                  &user_sums);
    }
  }
  return RefreshStats{.rounds = config.max_sweeps,
                      .items_refreshed = static_cast<uint32_t>(items.size()),
                      .users_refreshed = static_cast<uint32_t>(users.size())};
}

Result<OcularFitResult> UpdateModel(const OcularModel& model,
                                    const CsrMatrix& interactions,
                                    const OcularConfig& config,
                                    const ExpandOptions& options) {
  OCULAR_RETURN_IF_ERROR(CheckUpdateConfig(model, config));
  OCULAR_ASSIGN_OR_RETURN(
      OcularModel grown,
      ExpandModel(model, interactions.num_rows(), interactions.num_cols(),
                  options));
  PinNewBiasCoordinates(&grown, config, model.num_users(), model.num_items());
  OcularTrainer trainer(config);
  return trainer.FitFrom(interactions, std::move(grown));
}

}  // namespace ocular
