// Seeded inputs of the serving benchmark and their offline oracle: the
// generated interaction data, the trained artifact, the request lines,
// and the exact reply the daemon owes each of them.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sparse/csr.h"

namespace perfbench {

/// What one named workload serves and how it is driven.
struct WorkloadSpec {
  std::string name;
  /// Reads are anonymous `history` requests instead of stored users.
  bool history_reads = false;
  /// The update stream runs during the open-loop read phase.
  bool updates_during_reads = false;
  /// Items per reply.
  uint32_t m = 50;
  /// Open-loop read rate, requests/s: low enough that the slowest box
  /// phase seen still keeps up (no growing backlog).
  double open_rate = 0.0;
};

/// The workloads, by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Generated data, written to disk the way the daemon reads it.
struct Inputs {
  std::string data_path;   ///< user<TAB>item lines (--datasets)
  std::string model_path;  ///< binary v2 artifact (--models)
  /// The training matrix exactly as the daemon loads `data_path`.
  std::shared_ptr<const ocular::CsrMatrix> train;
  /// Held-out rows: sorted, deduplicated, in-range
  /// item ids, never empty — the `history` read requests.
  std::vector<std::vector<uint32_t>> histories;
};

/// Generates the citeulike-like data from `seed` (2800 training users of
/// ~14k items, the rest held out), trains the K=50 model, and writes both
/// under `dir`.
ocular::Result<Inputs> BuildInputs(uint64_t seed, const std::string& dir);

/// Newline-terminated stored-user read for `user`.
std::string UserLine(uint32_t user, uint32_t m);
/// Newline-terminated anonymous read for `history`.
std::string HistoryLine(const std::vector<uint32_t>& history, uint32_t m);

/// Expected reply (no newline) to UserLine(u, m) for every user u, from
/// RecommendForAllUsers over the artifact at `model_path` with `train`'s
/// rows excluded.
ocular::Result<std::vector<std::string>> StoredUserOracle(
    const std::string& model_path,
    std::shared_ptr<const ocular::CsrMatrix> train, uint32_t m);

/// Expected reply (no newline) to HistoryLine(h, m) for every history h,
/// from the RecommendForHistory engine over the artifact at `model_path`
/// (histories that fold to nothing get `train`'s item-count ranking, as
/// from a daemon bound to `train`).
ocular::Result<std::vector<std::string>> HistoryOracle(
    const std::string& model_path, const ocular::CsrMatrix& train,
    const std::vector<std::vector<uint32_t>>& histories, uint32_t m);

/// One `update` verb of the seeded update stream.
struct UpdateOp {
  std::vector<std::pair<uint32_t, uint32_t>> adds;
  std::string line;  ///< newline-terminated request
};

/// Refresh sweeps every update asks for. One: with more, a retrain stops
/// after one sweep once the model is near-stationary and acks in about
/// half the time, so update latency would depend on how many updates came
/// before.
inline constexpr uint32_t kUpdateSweeps = 1;

/// The seeded update stream: `count` updates of in-range (user, item)
/// additions.
std::vector<UpdateOp> MakeUpdates(uint64_t seed, uint32_t num_users,
                                  uint32_t num_items, size_t count);

/// `train` with the adds of `updates[0, applied)` merged in — the
/// exclusion rows the daemon serves after that many updates.
ocular::Result<std::shared_ptr<const ocular::CsrMatrix>> TrainAfter(
    const ocular::CsrMatrix& train, const std::vector<UpdateOp>& updates,
    size_t applied);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
