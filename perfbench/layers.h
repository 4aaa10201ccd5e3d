// In-process timing of the serving and update layers for the traced run:
// each public call is one span, on the same requests and update stream
// the servers get over TCP.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// One read as the layers see it. Every request exercises both read
/// paths: the stored-user path on `user` and the fold-in path on
/// `history`; `line` is the workload's own request (of the kind given by
/// `history_line`), which parse, render and HandleLine time.
struct LayerRequest {
  std::string line;  ///< without the newline
  bool history_line = false;
  uint32_t user = 0;
  uint32_t history_m = 10;
  std::vector<uint32_t> history;
};

/// Spans per request (children of "layers.request"): json.parse,
/// daemon.recommend, score_engine.serve_topm.user, fold_in.sanitize,
/// fold_in.fold_in_user, score_engine.serve_topm.history,
/// render.write_ranked, daemon.handle_line.
ocular::Status TimeServingLayers(const Inputs& in,
                                 const std::vector<LayerRequest>& requests,
                                 Tracer* tracer);

/// Replays `updates[0, count)` against a private copy of the artifact in
/// `dir` the way the daemon's update pipeline does, one "update" span per
/// update with children journal.append, model_store.open,
/// incremental.update_model, model_store.save and registry.reload.
/// `sweeps_run` receives each retrain's sweep count.
ocular::Status TimeUpdateLayers(const Inputs& in,
                                const std::vector<UpdateOp>& updates,
                                size_t count, const std::string& dir,
                                Tracer* tracer, std::vector<double>* sweeps_run);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
