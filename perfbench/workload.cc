#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>

#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fold_in.h"
#include "core/model_store.h"
#include "core/ocular_trainer.h"
#include "data/loaders.h"
#include "data/synthetic.h"
#include "serving/batch.h"
#include "serving/registry.h"
#include "serving/render.h"
#include "sparse/coo.h"

namespace perfbench {

using ocular::CooBuilder;
using ocular::CsrMatrix;
using ocular::Result;
using ocular::Status;

namespace {

/// Sweeps of the from-scratch training in set-up. Ranking quality is not
/// what this benchmark measures; a deterministic model of the right shape
/// is.
constexpr uint32_t kTrainSweeps = 3;
/// Scale of the citeulike-like generator: 3885 users x 14206 items.
constexpr double kCiteulikeScale = 0.7;
/// Rows of the citeulike-like data kept for training; the other ~1085 are
/// the held-out histories of anonymous reads — enough that their mean
/// cost, which a few long histories dominate, repeats from seed to seed.
constexpr uint32_t kCiteulikeTrainUsers = 2800;
/// (user, item) additions per update.
constexpr size_t kAddsPerUpdate = 16;

const WorkloadSpec kWorkloads[] = {
    {.name = "citeulike-history",
     .history_reads = true,
     .m = 10,
     .open_rate = 500.0},
    {.name = "update-under-read",
     .updates_during_reads = true,
     .m = 50,
     .open_rate = 500.0},
};

Status WritePairs(const CsrMatrix& m, uint32_t rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (uint32_t u = 0; u < rows; ++u) {
    for (uint32_t i : m.Row(u)) std::fprintf(f, "%u\t%u\n", u, i);
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

/// A ranked-list reply as the daemon renders it: the envelope, the
/// request-kind fields written by `head`, then the items.
std::string RankedReply(std::span<const ocular::ScoredItem> items,
                        const std::function<void(ocular::JsonWriter*)>& head) {
  ocular::JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("model");
  w.String("default");
  head(&w);
  ocular::WriteRankedItems(&w, items);
  w.EndObject();
  return w.str();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<Inputs> BuildInputs(uint64_t seed, const std::string& dir) {
  Inputs in;
  in.data_path = dir + "/data.tsv";
  in.model_path = dir + "/model.oclr";
  ocular::Rng rng(seed);
  OCULAR_ASSIGN_OR_RETURN(auto data, ocular::MakeCiteULikeLike(kCiteulikeScale, &rng));
  const CsrMatrix full = data.dataset.interactions();
  const uint32_t train_rows = std::min(kCiteulikeTrainUsers, full.num_rows());
  OCULAR_RETURN_IF_ERROR(WritePairs(full, train_rows, in.data_path));

  // Train on the matrix exactly as the daemon will load it, so model and
  // exclusion rows agree in shape.
  ocular::CsvOptions csv;
  csv.delimiter = '\t';
  csv.compact_ids = false;
  OCULAR_ASSIGN_OR_RETURN(ocular::Dataset ds, ocular::LoadCsv(in.data_path, csv));
  in.train = std::make_shared<const CsrMatrix>(ds.interactions());

  ocular::OcularConfig config;
  config.k = 50;
  config.lambda = 1.0;
  config.max_sweeps = kTrainSweeps;
  config.seed = seed;
  OCULAR_ASSIGN_OR_RETURN(auto fit, ocular::OcularTrainer(config).Fit(*in.train));
  OCULAR_RETURN_IF_ERROR(ocular::SaveModelBinary(fit.model, config, in.model_path));

  const uint32_t items = in.train->num_cols();
  for (uint32_t u = train_rows; u < full.num_rows(); ++u) {
    std::vector<uint32_t> h;
    for (uint32_t i : full.Row(u)) {
      if (i < items) h.push_back(i);
    }
    if (!h.empty()) in.histories.push_back(std::move(h));
  }
  return in;
}

std::string UserLine(uint32_t user, uint32_t m) {
  return "{\"user\":" + std::to_string(user) + ",\"m\":" + std::to_string(m) +
         "}\n";
}

std::string HistoryLine(const std::vector<uint32_t>& history, uint32_t m) {
  std::string line = "{\"cmd\":\"recommend\",\"history\":[";
  for (size_t k = 0; k < history.size(); ++k) {
    if (k > 0) line += ',';
    line += std::to_string(history[k]);
  }
  return line + "],\"m\":" + std::to_string(m) + "}\n";
}

Result<std::vector<std::string>> StoredUserOracle(
    const std::string& model_path, std::shared_ptr<const CsrMatrix> train,
    uint32_t m) {
  ocular::ModelRegistry registry;
  OCULAR_RETURN_IF_ERROR(registry.Load("default", model_path, train));
  auto model = registry.Get("default");
  ocular::BatchOptions options;
  options.m = m;
  options.skip_cold_users = false;
  ocular::ThreadPool pool(4);
  OCULAR_ASSIGN_OR_RETURN(
      auto batch,
      ocular::RecommendForAllUsers(*model->recommender, *train, options, &pool));
  std::vector<std::string> replies;
  replies.reserve(batch.recommendations.size());
  for (size_t u = 0; u < batch.recommendations.size(); ++u) {
    replies.push_back(RankedReply(batch.recommendations[u],
                                  [u](ocular::JsonWriter* w) {
                                    w->Key("user");
                                    w->UInt(u);
                                  }));
  }
  return replies;
}

Result<std::vector<std::string>> HistoryOracle(
    const std::string& model_path, const CsrMatrix& train,
    const std::vector<std::vector<uint32_t>>& histories, uint32_t m) {
  OCULAR_ASSIGN_OR_RETURN(ocular::LoadedModel loaded,
                          ocular::LoadModelAuto(model_path));
  // RecommendForHistory's engine, with the fallback ranking a daemon bound
  // to `train` uses for histories that fold to nothing: item counts.
  std::vector<double> popularity(loaded.model.num_items(), 0.0);
  for (uint32_t i : train.col_idx()) popularity[i] += 1.0;
  OCULAR_ASSIGN_OR_RETURN(
      ocular::FoldInContext ctx,
      ocular::MakeFoldInContext(loaded.model, loaded.config, popularity));
  ocular::FoldInWorkspace fold;
  std::vector<double> tile;
  std::vector<ocular::ScoredItem> selection;
  std::vector<std::string> replies;
  replies.reserve(histories.size());
  for (const std::vector<uint32_t>& h : histories) {
    OCULAR_ASSIGN_OR_RETURN(
        ocular::HistoryRecommendation rec,
        ocular::RecommendForHistoryInto(ctx, h, m, 0.0,
                                        ocular::kDefaultScoreBlockItems, {},
                                        &fold, &tile, &selection));
    replies.push_back(RankedReply(rec.items, [&](ocular::JsonWriter* w) {
      w->Key("folded");
      w->Bool(rec.folded);
      w->Key("dropped");
      w->UInt(0);
    }));
  }
  return replies;
}

std::vector<UpdateOp> MakeUpdates(uint64_t seed, uint32_t num_users,
                                  uint32_t num_items, size_t count) {
  ocular::Rng rng(seed ^ 0x5bd1e995u);
  std::vector<UpdateOp> updates(count);
  for (UpdateOp& op : updates) {
    op.line = "{\"cmd\":\"update\",\"adds\":[";
    for (size_t k = 0; k < kAddsPerUpdate; ++k) {
      const auto u = static_cast<uint32_t>(rng.UniformInt(num_users));
      const auto i = static_cast<uint32_t>(rng.UniformInt(num_items));
      op.adds.emplace_back(u, i);
      if (k > 0) op.line += ',';
      op.line += "[" + std::to_string(u) + "," + std::to_string(i) + "]";
    }
    op.line += "],\"sweeps\":" + std::to_string(kUpdateSweeps) + "}\n";
  }
  return updates;
}

Result<std::shared_ptr<const CsrMatrix>> TrainAfter(
    const CsrMatrix& train, const std::vector<UpdateOp>& updates,
    size_t applied) {
  CooBuilder coo;
  for (auto [u, i] : train.ToPairs()) coo.Add(u, i);
  for (size_t k = 0; k < applied; ++k) {
    for (auto [u, i] : updates[k].adds) coo.Add(u, i);
  }
  OCULAR_ASSIGN_OR_RETURN(auto entries,
                          coo.Finalize(train.num_rows(), train.num_cols()));
  return std::make_shared<const CsrMatrix>(CsrMatrix::FromCoo(entries));
}

}  // namespace perfbench
