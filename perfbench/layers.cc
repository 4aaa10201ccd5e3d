#include "layers.h"

#include <filesystem>

#include "common/fs_util.h"
#include "common/json.h"
#include "core/fold_in.h"
#include "core/incremental.h"
#include "core/model_store.h"
#include "host.h"
#include "serving/daemon.h"
#include "serving/journal.h"
#include "serving/registry.h"
#include "serving/render.h"
#include "serving/score_engine.h"

namespace perfbench {

using ocular::Status;

namespace {

/// Keeps a computed value observable so timed calls are not elided.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace

Status TimeServingLayers(const Inputs& in,
                         const std::vector<LayerRequest>& requests,
                         Tracer* tracer) {
  ocular::ModelRegistry registry;
  OCULAR_RETURN_IF_ERROR(registry.Load("default", in.model_path, in.train));
  ocular::RequestServer server(&registry);
  const auto model = registry.Get("default");
  if (model->fold_in == nullptr) {
    return Status::FailedPrecondition("model has no fold-in context");
  }
  const ocular::FoldInContext& ctx = *model->fold_in;
  ocular::ServeWorkspace ws;
  ocular::FoldInWorkspace fold;
  std::vector<uint32_t> history;
  ocular::ServeOptions user_serve;
  user_serve.m = 50;

  for (uint64_t r = 0; r < requests.size(); ++r) {
    const LayerRequest& req = requests[r];
    ocular::ServeOptions history_serve;
    history_serve.m = req.history_m;
    // Calls run back to back and their spans are recorded afterwards, as
    // children of one root, so the root's self time is the timing glue.
    const double t0 = NowUs();
    auto parsed = ocular::JsonValue::Parse(req.line);
    const double t1 = NowUs();
    if (!parsed.ok()) return parsed.status();
    Keep(parsed);
    auto recommended = server.Recommend("default", req.user, user_serve);
    const double t2 = NowUs();
    if (!recommended.ok()) return recommended.status();
    auto user_top = ocular::ServeTopM(*model->recommender, req.user,
                                      model->ExcludeRow(req.user), user_serve, &ws);
    Keep(user_top);
    const double t3 = NowUs();
    history = req.history;
    ocular::SanitizeHistory(&history, ctx.num_items());
    const double t4 = NowUs();
    OCULAR_RETURN_IF_ERROR(ocular::FoldInUserInto(ctx, history, {}, &fold));
    const double t5 = NowUs();
    const ocular::FoldedUserRecommender folded(&ctx, fold.f);
    auto history_top = ocular::ServeTopM(folded, 0, history, history_serve, &ws);
    const double t6 = NowUs();
    ocular::JsonWriter writer;
    ocular::WriteRankedItems(
        &writer, req.history_line
                     ? history_top
                     : std::span<const ocular::ScoredItem>(*recommended));
    Keep(writer.str());
    const double t7 = NowUs();
    const std::string reply = server.HandleLine(req.line);
    const double t8 = NowUs();
    if (reply.rfind("{\"ok\":true", 0) != 0) {
      return Status::Internal("HandleLine failed: " + reply);
    }

    const uint64_t id = tracer->Record("layers.request", t0, t8, 0, r);
    tracer->Record("json.parse", t0, t1, id, r);
    tracer->Record("daemon.recommend", t1, t2, id, r);
    tracer->Record("score_engine.serve_topm.user", t2, t3, id, r);
    tracer->Record("fold_in.sanitize", t3, t4, id, r);
    tracer->Record("fold_in.fold_in_user", t4, t5, id, r);
    tracer->Record("score_engine.serve_topm.history", t5, t6, id, r);
    tracer->Record("render.write_ranked", t6, t7, id, r);
    tracer->Record("daemon.handle_line", t7, t8, id, r);
  }
  return Status::OK();
}

Status TimeUpdateLayers(const Inputs& in, const std::vector<UpdateOp>& updates,
                        size_t count, const std::string& dir, Tracer* tracer,
                        std::vector<double>* sweeps_run) {
  const std::string path = dir + "/layers.oclr";
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  std::filesystem::copy_file(in.model_path, path,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) return Status::IOError("copy artifact: " + ec.message());
  std::filesystem::remove(ocular::UpdateJournal::PathFor(path), ec);
  ocular::ModelRegistry registry;
  OCULAR_RETURN_IF_ERROR(registry.Load("default", path, in.train));
  ocular::UpdateJournal journal;
  OCULAR_RETURN_IF_ERROR(journal.Open(ocular::UpdateJournal::PathFor(path)));

  for (size_t k = 0; k < count && k < updates.size(); ++k) {
    const double start = NowUs();
    OCULAR_ASSIGN_OR_RETURN(auto train, TrainAfter(*in.train, updates, k + 1));
    ocular::UpdateRecord record;
    record.num_users = train->num_rows();
    record.num_items = train->num_cols();
    record.sweeps = kUpdateSweeps;
    record.adds = updates[k].adds;

    const double t0 = NowUs();
    OCULAR_RETURN_IF_ERROR(journal.AppendUpdate(record));
    OCULAR_RETURN_IF_ERROR(journal.AppendCommit());
    const double t1 = NowUs();
    OCULAR_ASSIGN_OR_RETURN(ocular::LoadedModel loaded, ocular::LoadModelAuto(path));
    const double t2 = NowUs();
    ocular::OcularConfig config = loaded.config;
    config.max_sweeps = kUpdateSweeps;
    OCULAR_ASSIGN_OR_RETURN(auto fit,
                            ocular::UpdateModel(loaded.model, *train, config));
    const double t3 = NowUs();
    OCULAR_RETURN_IF_ERROR(ocular::SaveModelBinary(fit.model, config, tmp));
    OCULAR_RETURN_IF_ERROR(ocular::fs::FsyncFile(tmp));
    OCULAR_RETURN_IF_ERROR(ocular::fs::DurableRename(tmp, path));
    const double t4 = NowUs();
    OCULAR_RETURN_IF_ERROR(registry.ReloadAll());
    const double t5 = NowUs();

    const uint64_t id = tracer->Record("update", start, t5, 0, k);
    tracer->Record("journal.append", t0, t1, id, k);
    tracer->Record("model_store.open", t1, t2, id, k);
    tracer->Record("incremental.update_model", t2, t3, id, k);
    tracer->Record("model_store.save", t3, t4, id, k);
    tracer->Record("registry.reload", t4, t5, id, k);
    sweeps_run->push_back(fit.sweeps_run);
  }
  return Status::OK();
}

}  // namespace perfbench
