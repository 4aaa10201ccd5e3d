// Tests for incremental model maintenance (ExpandModel / UpdateModel /
// RefreshModel) and a compile/link check of the umbrella header.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>
#include <vector>

#include "ocular/ocular.h"

namespace ocular {
namespace {

PlantedCoClusterData Planted(uint32_t users, uint32_t items, uint64_t seed) {
  PlantedCoClusterConfig cfg;
  cfg.num_users = users;
  cfg.num_items = items;
  cfg.num_clusters = 4;
  cfg.user_membership_prob = 0.25;
  cfg.item_membership_prob = 0.25;
  Rng rng(seed);
  return GeneratePlantedCoClusters(cfg, &rng).value();
}

TEST(ExpandModelTest, PreservesOldRowsInitializesNew) {
  Rng rng(1);
  DenseMatrix fu(3, 2), fi(2, 2);
  fu.FillUniform(&rng, 0.1, 1.0);
  fi.FillUniform(&rng, 0.1, 1.0);
  OcularModel model(fu, fi);
  auto grown = ExpandModel(model, 5, 4).value();
  EXPECT_EQ(grown.num_users(), 5u);
  EXPECT_EQ(grown.num_items(), 4u);
  for (uint32_t u = 0; u < 3; ++u) {
    for (uint32_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(grown.user_factors().At(u, c), fu.At(u, c));
    }
  }
  // New rows are non-negative and not all zero (cold-start init).
  double new_mass = 0.0;
  for (uint32_t u = 3; u < 5; ++u) {
    for (uint32_t c = 0; c < 2; ++c) {
      EXPECT_GE(grown.user_factors().At(u, c), 0.0);
      new_mass += grown.user_factors().At(u, c);
    }
  }
  EXPECT_GT(new_mass, 0.0);
}

TEST(ExpandModelTest, RefusesToShrink) {
  OcularModel model(DenseMatrix(3, 2, 0.5), DenseMatrix(3, 2, 0.5));
  EXPECT_TRUE(ExpandModel(model, 2, 3).status().IsInvalidArgument());
  EXPECT_TRUE(ExpandModel(model, 3, 2).status().IsInvalidArgument());
}

TEST(ExpandModelTest, ShapeDerivedSeedIsDeterministicPerCallButDecorrelated) {
  Rng rng(1);
  DenseMatrix fu(3, 2), fi(2, 2);
  fu.FillUniform(&rng, 0.1, 1.0);
  fi.FillUniform(&rng, 0.1, 1.0);
  OcularModel model(fu, fi);

  // Same call twice: bit-identical (replayable daily update).
  auto a = ExpandModel(model, 5, 4).value();
  auto b = ExpandModel(model, 5, 4).value();
  for (uint32_t u = 0; u < 5; ++u) {
    for (uint32_t c = 0; c < 2; ++c) {
      EXPECT_EQ(a.user_factors().At(u, c), b.user_factors().At(u, c));
    }
  }

  // Successive expansions of a growing catalog draw from different
  // streams: growing 5->7 must not hand the new rows the same values the
  // 3->5 step produced (a constant seed did exactly that).
  auto second_step = ExpandModel(a, 7, 4).value();
  bool any_differ = false;
  for (uint32_t n = 0; n < 2 && !any_differ; ++n) {
    for (uint32_t c = 0; c < 2 && !any_differ; ++c) {
      any_differ = second_step.user_factors().At(5 + n, c) !=
                   a.user_factors().At(3 + n, c);
    }
  }
  EXPECT_TRUE(any_differ)
      << "successive expansions reused the identical init stream";
  EXPECT_NE(DeriveExpandSeed(3, 2, 5, 4, 2), DeriveExpandSeed(5, 4, 7, 4, 2));

  // An explicit seed pins the stream and differs from other seeds.
  ExpandOptions pinned;
  pinned.seed = 42;
  auto p1 = ExpandModel(model, 5, 4, pinned).value();
  auto p2 = ExpandModel(model, 5, 4, pinned).value();
  ExpandOptions other;
  other.seed = 43;
  auto q = ExpandModel(model, 5, 4, other).value();
  bool pinned_differs = false;
  for (uint32_t u = 3; u < 5; ++u) {
    for (uint32_t c = 0; c < 2; ++c) {
      EXPECT_EQ(p1.user_factors().At(u, c), p2.user_factors().At(u, c));
      pinned_differs =
          pinned_differs ||
          p1.user_factors().At(u, c) != q.user_factors().At(u, c);
    }
  }
  EXPECT_TRUE(pinned_differs);
}

TEST(UpdateModelTest, WarmStartConvergesFasterThanCold) {
  // Train on an initial snapshot; append new users + interactions; update
  // with few sweeps and compare against cold-starting on the new data.
  auto v1 = Planted(80, 50, 3);
  OcularConfig cfg;
  cfg.k = 6;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 60;
  cfg.tolerance = 1e-6;
  OcularTrainer trainer(cfg);
  auto fit_v1 = trainer.Fit(v1.dataset.interactions()).value();

  // v2 = v1 plus 10 fresh users who bought items of cluster 0.
  CooBuilder coo;
  for (auto [u, i] : v1.dataset.interactions().ToPairs()) coo.Add(u, i);
  Rng rng(4);
  for (uint32_t nu = 80; nu < 90; ++nu) {
    for (uint32_t i : v1.cluster_items[0]) {
      if (rng.Bernoulli(0.6)) coo.Add(nu, i);
    }
  }
  CsrMatrix v2 = CsrMatrix::FromCoo(coo.Finalize(90, 50).value());

  OcularConfig update_cfg = cfg;
  update_cfg.max_sweeps = 60;
  auto warm = UpdateModel(fit_v1.model, v2, update_cfg).value();
  auto cold = OcularTrainer(update_cfg).Fit(v2).value();

  // The warm-start claim is about the objective reached per sweep budget,
  // not sweeps-until-tolerance (that count is init-stream luck: a warm run
  // can spend many sweeps inching down a tail BELOW cold's final value).
  // Within a third of cold's budget the warm start must already be at
  // least as good as cold ever gets...
  const size_t third = std::min<size_t>(warm.trace.size() - 1,
                                        std::max(1u, cold.sweeps_run / 3));
  EXPECT_LE(warm.trace[third].objective, cold.trace.back().objective * 1.001)
      << "warm start after " << third << " sweeps vs cold after "
      << cold.sweeps_run;
  // ...and its converged objective stays comparable (or better).
  EXPECT_LE(warm.trace.back().objective,
            cold.trace.back().objective * 1.02);
  EXPECT_TRUE(warm.model.Validate().ok());
}

TEST(UpdateModelTest, NewUsersGetSensibleRecommendations) {
  auto v1 = Planted(60, 40, 5);
  OcularConfig cfg;
  cfg.k = 6;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 50;
  auto fit_v1 = OcularTrainer(cfg).Fit(v1.dataset.interactions()).value();

  // One new user buys half the items of cluster 1.
  CooBuilder coo;
  for (auto [u, i] : v1.dataset.interactions().ToPairs()) coo.Add(u, i);
  const auto& cluster_items = v1.cluster_items[1];
  ASSERT_GE(cluster_items.size(), 4u);
  std::vector<uint32_t> bought, held_out;
  for (size_t n = 0; n < cluster_items.size(); ++n) {
    (n % 2 == 0 ? bought : held_out).push_back(cluster_items[n]);
  }
  for (uint32_t i : bought) coo.Add(60, i);
  CsrMatrix v2 = CsrMatrix::FromCoo(coo.Finalize(61, 40).value());

  auto updated = UpdateModel(fit_v1.model, v2, cfg).value();
  // The held-out cluster items should now score high for the new user.
  double held_sum = 0.0;
  for (uint32_t i : held_out) held_sum += updated.model.Probability(60, i);
  const double held_mean = held_sum / static_cast<double>(held_out.size());
  // Against a random non-cluster baseline.
  double other_sum = 0.0;
  int other_n = 0;
  for (uint32_t i = 0; i < 40; ++i) {
    bool in_cluster = false;
    for (uint32_t c : cluster_items) in_cluster |= (c == i);
    if (!in_cluster) {
      other_sum += updated.model.Probability(60, i);
      ++other_n;
    }
  }
  EXPECT_GT(held_mean, 2.0 * (other_sum / other_n));
}

TEST(UpdateModelTest, ValidatesDimensions) {
  OcularModel model(DenseMatrix(2, 3, 0.5), DenseMatrix(2, 3, 0.5));
  OcularConfig cfg;
  cfg.k = 5;  // mismatch with model.k() == 3
  CsrMatrix r = CsrMatrix::FromPairs({{0, 0}}, 2, 2).value();
  EXPECT_TRUE(UpdateModel(model, r, cfg).status().IsInvalidArgument());
}

TEST(UpdateModelTest, BiasModelKeepsPinnedCoordinates) {
  auto v1 = Planted(40, 30, 9);
  OcularConfig cfg;
  cfg.k = 4;
  cfg.use_biases = true;
  cfg.max_sweeps = 20;
  auto fit = OcularTrainer(cfg).Fit(v1.dataset.interactions()).value();

  CooBuilder coo;
  for (auto [u, i] : v1.dataset.interactions().ToPairs()) coo.Add(u, i);
  coo.Add(40, 0);  // one new user, one new purchase
  CsrMatrix v2 = CsrMatrix::FromCoo(coo.Finalize(41, 30).value());
  auto updated = UpdateModel(fit.model, v2, cfg).value();
  for (uint32_t u = 0; u < 41; ++u) {
    EXPECT_DOUBLE_EQ(updated.model.user_factors().At(u, 5), 1.0);
  }
  for (uint32_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(updated.model.item_factors().At(i, 4), 1.0);
  }
}

// ------------------------------------------------------------ RefreshModel

using Adds = std::vector<std::pair<uint32_t, uint32_t>>;

/// `base` plus `adds`, shaped to at least (users, items).
CsrMatrix Merge(const CsrMatrix& base, const Adds& adds, uint32_t users,
                uint32_t items) {
  CooBuilder coo;
  for (auto [u, i] : base.ToPairs()) coo.Add(u, i);
  for (auto [u, i] : adds) {
    users = std::max(users, u + 1);
    items = std::max(items, i + 1);
    coo.Add(u, i);
  }
  return CsrMatrix::FromCoo(coo.Finalize(users, items).value());
}

/// The refresh written the slow way: grow with ExpandModel, transpose the
/// whole matrix, and recompute both column sums from scratch before every
/// block. RefreshModel must land on the same factors.
OcularModel SlowRefreshOracle(const OcularModel& model,
                              const CsrMatrix& interactions, const Adds& adds,
                              const OcularConfig& config) {
  OcularModel out =
      ExpandModel(model, interactions.num_rows(), interactions.num_cols())
          .value();
  DenseMatrix& fu = *out.mutable_user_factors();
  DenseMatrix& fi = *out.mutable_item_factors();
  if (config.use_biases) {
    for (uint32_t u = model.num_users(); u < fu.rows(); ++u) {
      fu.At(u, config.k + 1) = 1.0;
    }
    for (uint32_t i = model.num_items(); i < fi.rows(); ++i) {
      fi.At(i, config.k) = 1.0;
    }
  }
  std::vector<uint32_t> items, users;
  for (auto [u, i] : adds) {
    if (u < model.num_users()) users.push_back(u);
    if (i < model.num_items()) items.push_back(i);
  }
  for (auto* rows : {&users, &items}) {
    std::sort(rows->begin(), rows->end());
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  }
  for (uint32_t u = model.num_users(); u < fu.rows(); ++u) users.push_back(u);
  for (uint32_t i = model.num_items(); i < fi.rows(); ++i) items.push_back(i);

  const CsrMatrix transposed = interactions.Transpose();
  const std::vector<double> weights =
      OcularTrainer(config).UserWeights(interactions);
  const bool relative = config.variant == OcularVariant::kRelative;
  const int item_frozen = config.use_biases ? static_cast<int>(config.k) : -1;
  const int user_frozen =
      config.use_biases ? static_cast<int>(config.k) + 1 : -1;
  internal::BlockWorkspace ws;
  ws.Reserve(fu.cols(),
             std::max(interactions.MaxRowDegree(), transposed.MaxRowDegree()));
  std::vector<double> item_steps(items.size(), 0.0);
  std::vector<double> user_steps(users.size(), 0.0);
  for (uint32_t round = 0; round < config.max_sweeps; ++round) {
    for (size_t s = 0; s < items.size(); ++s) {
      auto neighbors = transposed.Row(items[s]);
      std::vector<double> w;
      if (relative) {
        for (uint32_t u : neighbors) w.push_back(weights[u]);
      }
      ws.Invalidate();
      for (uint32_t step = 0; step < config.block_steps; ++step) {
        internal::ProjectedGradientStep(
            fi.Row(items[s]), neighbors, fu, fu.ColumnSums(), config.lambda,
            1.0, w, config, item_frozen, &ws, &item_steps[s]);
      }
    }
    for (size_t s = 0; s < users.size(); ++s) {
      ws.Invalidate();
      for (uint32_t step = 0; step < config.block_steps; ++step) {
        internal::ProjectedGradientStep(
            fu.Row(users[s]), interactions.Row(users[s]), fi, fi.ColumnSums(),
            config.lambda, relative ? weights[users[s]] : 1.0, {}, config,
            user_frozen, &ws, &user_steps[s]);
      }
    }
  }
  return out;
}

struct RefreshCase {
  const char* name;
  OcularVariant variant;
  bool use_biases;
  uint32_t block_steps;
};

void PrintTo(const RefreshCase& c, std::ostream* os) { *os << c.name; }

class RefreshModelTest : public ::testing::TestWithParam<RefreshCase> {
 protected:
  void SetUp() override {
    data_ = Planted(60, 40, 21);
    config_.k = 4;
    config_.lambda = 0.3;
    config_.variant = GetParam().variant;
    config_.use_biases = GetParam().use_biases;
    config_.block_steps = GetParam().block_steps;
    config_.max_sweeps = 15;
    fit_ = OcularTrainer(config_).Fit(data_.dataset.interactions()).value();
    config_.max_sweeps = 3;  // refresh rounds
  }

  PlantedCoClusterData data_;
  OcularConfig config_;
  OcularFitResult fit_;
};

// Existing users and items, a brand-new user (60) buying an existing and
// a brand-new item (41), and item 40: a new row no add names, because the
// update asked for 42 items.
const Adds kAdds = {{3, 7}, {3, 11}, {17, 7}, {59, 0}, {60, 2}, {60, 41}};
constexpr uint32_t kItemsAfter = 42;

TEST_P(RefreshModelTest, TouchesOnlyNamedAndNewRowsAndMatchesTheSlowOracle) {
  const CsrMatrix merged =
      Merge(data_.dataset.interactions(), kAdds, 0, kItemsAfter);
  OcularModel refreshed = fit_.model;
  auto stats = RefreshModel(&refreshed, merged, kAdds, config_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rounds, 3u);
  EXPECT_EQ(stats->items_refreshed, 6u);  // 0, 2, 7, 11 + new 40, 41
  EXPECT_EQ(stats->users_refreshed, 4u);  // 3, 17, 59 + new 60
  ASSERT_EQ(refreshed.num_users(), 61u);
  ASSERT_EQ(refreshed.num_items(), kItemsAfter);

  const std::vector<uint32_t> touched_users = {3, 17, 59, 60};
  const std::vector<uint32_t> touched_items = {0, 2, 7, 11, 40, 41};
  const auto touched = [](const std::vector<uint32_t>& rows, uint32_t r) {
    return std::find(rows.begin(), rows.end(), r) != rows.end();
  };
  const auto row_bytes_equal = [](std::span<const double> a,
                                  std::span<const double> b) {
    return std::equal(a.begin(), a.end(), b.begin());
  };
  // Untouched rows keep their exact bytes. A touched row may keep them
  // too (a block whose line search finds no sufficient decrease stays
  // put), but some old rows on each side must have moved.
  uint32_t users_moved = 0;
  for (uint32_t u = 0; u < 60; ++u) {
    const bool same = row_bytes_equal(refreshed.user_factors().Row(u),
                                      fit_.model.user_factors().Row(u));
    if (!touched(touched_users, u)) EXPECT_TRUE(same) << "user " << u;
    users_moved += same ? 0 : 1;
  }
  uint32_t items_moved = 0;
  for (uint32_t i = 0; i < 40; ++i) {
    const bool same = row_bytes_equal(refreshed.item_factors().Row(i),
                                      fit_.model.item_factors().Row(i));
    if (!touched(touched_items, i)) EXPECT_TRUE(same) << "item " << i;
    items_moved += same ? 0 : 1;
  }
  EXPECT_GT(users_moved, 0u);
  EXPECT_GT(items_moved, 0u);
  // New rows were refreshed away from their ExpandModel draw.
  const OcularModel grown =
      ExpandModel(fit_.model, 61, kItemsAfter).value();
  EXPECT_FALSE(row_bytes_equal(refreshed.user_factors().Row(60),
                               grown.user_factors().Row(60)));
  EXPECT_FALSE(row_bytes_equal(refreshed.item_factors().Row(41),
                               grown.item_factors().Row(41)));

  // Every row equals the oracle that re-sums the columns before every
  // block: the running sums differ from fresh sums only in rounding.
  const OcularModel oracle =
      SlowRefreshOracle(fit_.model, merged, kAdds, config_);
  for (uint32_t u = 0; u < 61; ++u) {
    for (uint32_t c = 0; c < config_.TotalDims(); ++c) {
      EXPECT_NEAR(refreshed.user_factors().At(u, c),
                  oracle.user_factors().At(u, c), 1e-9)
          << "user " << u << " dim " << c;
    }
  }
  for (uint32_t i = 0; i < kItemsAfter; ++i) {
    for (uint32_t c = 0; c < config_.TotalDims(); ++c) {
      EXPECT_NEAR(refreshed.item_factors().At(i, c),
                  oracle.item_factors().At(i, c), 1e-9)
          << "item " << i << " dim " << c;
    }
  }

  // Bias extension: every pinned coordinate, old rows and new, stays 1.
  if (config_.use_biases) {
    for (uint32_t u = 0; u < 61; ++u) {
      EXPECT_EQ(refreshed.user_factors().At(u, config_.k + 1), 1.0);
    }
    for (uint32_t i = 0; i < kItemsAfter; ++i) {
      EXPECT_EQ(refreshed.item_factors().At(i, config_.k), 1.0);
    }
  }

  // Deterministic: a replay lands on the same bytes.
  OcularModel again = fit_.model;
  ASSERT_TRUE(RefreshModel(&again, merged, kAdds, config_).ok());
  EXPECT_TRUE(again.user_factors() == refreshed.user_factors());
  EXPECT_TRUE(again.item_factors() == refreshed.item_factors());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, RefreshModelTest,
    ::testing::Values(
        RefreshCase{"Absolute", OcularVariant::kAbsolute, false, 1},
        RefreshCase{"Relative", OcularVariant::kRelative, false, 1},
        RefreshCase{"Biases", OcularVariant::kAbsolute, true, 1},
        RefreshCase{"TwoBlockSteps", OcularVariant::kAbsolute, false, 2}),
    [](const ::testing::TestParamInfo<RefreshCase>& info) {
      return std::string(info.param.name);
    });

TEST(RefreshModelWeightsTest, RelativeVariantWeighsPositivesByUser) {
  // The same refresh under R-OCuLaR must move the touched rows
  // differently from plain OCuLaR: the w_u weights reach both phases.
  auto data = Planted(60, 40, 21);
  OcularConfig config;
  config.k = 4;
  config.lambda = 0.3;
  config.max_sweeps = 15;
  const OcularModel base =
      OcularTrainer(config).Fit(data.dataset.interactions()).value().model;
  const CsrMatrix merged = Merge(data.dataset.interactions(), kAdds, 0, 40);
  config.max_sweeps = 2;
  OcularModel absolute = base;
  ASSERT_TRUE(RefreshModel(&absolute, merged, kAdds, config).ok());
  config.variant = OcularVariant::kRelative;
  OcularModel relative = base;
  ASSERT_TRUE(RefreshModel(&relative, merged, kAdds, config).ok());
  EXPECT_FALSE(relative.user_factors() == absolute.user_factors());
  EXPECT_FALSE(relative.item_factors() == absolute.item_factors());
}

TEST(RefreshModelValidationTest, RefusesBadInputs) {
  OcularModel model(DenseMatrix(3, 2, 0.5), DenseMatrix(4, 2, 0.5));
  OcularConfig config;
  config.k = 2;
  config.max_sweeps = 1;
  const CsrMatrix r = CsrMatrix::FromPairs({{0, 0}, {2, 3}}, 3, 4).value();
  OcularModel copy = model;
  // An add the matrix does not cover.
  EXPECT_TRUE(RefreshModel(&copy, r, Adds{{3, 0}}, config)
                  .status()
                  .IsInvalidArgument());
  // A matrix smaller than the model.
  const CsrMatrix small = CsrMatrix::FromPairs({{0, 0}}, 2, 4).value();
  EXPECT_TRUE(RefreshModel(&copy, small, Adds{{0, 0}}, config)
                  .status()
                  .IsInvalidArgument());
  // Config dimensions that do not match the model.
  config.k = 3;
  EXPECT_TRUE(RefreshModel(&copy, r, Adds{{0, 0}}, config)
                  .status()
                  .IsInvalidArgument());
  // No refusal touched the model.
  EXPECT_TRUE(copy.user_factors() == model.user_factors());
  EXPECT_TRUE(copy.item_factors() == model.item_factors());
}

// Umbrella-header sanity: one flow touching several modules compiled via
// ocular/ocular.h alone.
TEST(UmbrellaHeaderTest, EndToEndCompilesAndRuns) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 80;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  auto stats = ComputeDatasetStats(toy.interactions());
  EXPECT_EQ(stats.num_users, 12u);
  auto batch = RecommendForAllUsers(rec, toy.interactions(), {}).value();
  EXPECT_GT(batch.users_scored, 0u);
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"ok":true})");
}

}  // namespace
}  // namespace ocular
