// Quality of the online refresh: a stream of small updates folded in by
// RefreshModel (touched rows only) must rank held-out positives as well
// as the same stream folded in by UpdateModel (full warm-start sweeps).
// Labelled `quality`: the full-sweep side runs 200 sweeps over the whole
// catalog, so the test is Release-only (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "ocular/ocular.h"

namespace ocular {
namespace {

constexpr size_t kUpdates = 200;
constexpr size_t kAddsPerUpdate = 16;
constexpr uint32_t kCutoff = 50;

TEST(RefreshQualityTest, UpdateStreamKeepsHeldOutRecallOfFullSweeps) {
  Rng rng(2024);
  auto data = MakeCiteULikeLike(0.3, &rng);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const CsrMatrix& all = data->dataset.interactions();
  auto split = SplitInteractions(all, 0.75, &rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();

  // The update stream: 200 x 16 training positives held back from the
  // base fit and arriving later in random order.
  auto pairs = split->train.ToPairs();
  rng.Shuffle(&pairs);
  const size_t streamed = kUpdates * kAddsPerUpdate;
  ASSERT_GT(pairs.size(), 4 * streamed);
  const std::vector<std::pair<uint32_t, uint32_t>> stream(
      pairs.end() - streamed, pairs.end());
  pairs.resize(pairs.size() - streamed);

  // The deployed model is fitted to convergence: a base stopped early
  // would credit the full-sweep side with the training it skipped.
  OcularConfig config;
  config.k = 20;
  config.lambda = 1.0;
  config.tolerance = 1e-5;
  config.max_sweeps = 300;
  auto fit = OcularTrainer(config).Fit(
      CsrMatrix::FromPairs(pairs, all.num_rows(), all.num_cols()).value());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_TRUE(fit->converged);

  config.max_sweeps = 1;  // one sweep / one refresh round per update
  OcularModel swept = fit->model;
  OcularModel refreshed = fit->model;
  for (size_t u = 0; u < kUpdates; ++u) {
    const std::vector<std::pair<uint32_t, uint32_t>> adds(
        stream.begin() + u * kAddsPerUpdate,
        stream.begin() + (u + 1) * kAddsPerUpdate);
    pairs.insert(pairs.end(), adds.begin(), adds.end());
    const CsrMatrix merged =
        CsrMatrix::FromPairs(pairs, all.num_rows(), all.num_cols()).value();
    auto full = UpdateModel(swept, merged, config);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    swept = std::move(full->model);
    ASSERT_TRUE(RefreshModel(&refreshed, merged, adds, config).ok());
  }

  OcularModelRecommender swept_rec(swept);
  OcularModelRecommender refreshed_rec(refreshed);
  const double swept_recall =
      EvaluateRankingAtM(swept_rec, split->train, split->test, kCutoff)
          .value()
          .recall;
  const double refreshed_recall =
      EvaluateRankingAtM(refreshed_rec, split->train, split->test, kCutoff)
          .value()
          .recall;
  ASSERT_GT(swept_recall, 0.0);
  EXPECT_LE(std::abs(refreshed_recall - swept_recall), 0.01 * swept_recall)
      << "recall@" << kCutoff << ": refreshed " << refreshed_recall
      << ", full sweeps " << swept_recall;
}

}  // namespace
}  // namespace ocular
