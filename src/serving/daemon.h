#ifndef OCULAR_SERVING_DAEMON_H_
#define OCULAR_SERVING_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/fold_in.h"
#include "serving/line_server.h"
#include "serving/registry.h"
#include "serving/score_engine.h"
#include "serving/updater.h"

namespace ocular {

/// \brief Point-in-time serving statistics, as reported by the `stats`
/// verb. Counters are merged across the per-worker shards at snapshot
/// time; percentiles are exact over the union of the per-worker latency
/// windows (see MergedPercentile). The connection counters come from the
/// transport (ConnectionStats).
struct DaemonStatsSnapshot : ConnectionStats {
  /// Requests answered (including failed ones), summed over workers.
  uint64_t requests_served = 0;
  /// Requests answered with "ok": false, summed over workers (408/413
  /// connection failures included).
  uint64_t errors = 0;
  /// Hot reloads performed (SIGHUP or `reload` verb).
  uint64_t reloads = 0;
  /// History-based (fold-in) recommend requests answered, summed over
  /// workers.
  uint64_t fold_in_requests = 0;
  /// Out-of-range item ids dropped from client histories — the warning
  /// counter for client catalogs drifting ahead of the served model.
  uint64_t history_dropped_ids = 0;
  /// Stored-user recommends answered from a sharded (`*.shardset`)
  /// binding, summed over workers. Monolithic models never bump it, so
  /// the ratio against requests_served says how much traffic the shard
  /// router actually carries.
  uint64_t shard_requests = 0;
  /// In-daemon incremental updates published via the `update` verb.
  uint64_t updates = 0;
  /// Committed journal records re-merged into the training base at
  /// startup (Updater::RecoverJournal) — nonzero means this process
  /// inherited update deltas from a previous incarnation.
  uint64_t journal_recovered = 0;
  /// Pending (crash-windowed) journal records replayed to a fresh
  /// artifact at startup.
  uint64_t journal_replays = 0;
  /// Models currently loaded.
  size_t models_loaded = 0;
  /// Worker threads serving the TCP loop.
  size_t workers = 0;
  /// Median request latency over the merged recent window, microseconds.
  double p50_latency_us = 0.0;
  /// 99th-percentile request latency over the merged window, microseconds.
  double p99_latency_us = 0.0;
};

/// \brief Fixed-window latency ring with a single writer (the owning
/// worker) and lock-free readers (the stats snapshot). The writer stamps
/// samples with relaxed stores and publishes the count with release; a
/// reader acquires the count and copies the published prefix. A sample
/// being overwritten concurrently yields one stale-but-valid value in the
/// snapshot — fine for percentile reporting, and race-free by
/// construction (every access is atomic).
class LatencyRing {
 public:
  /// \brief A ring holding the `window` most recent samples (at least 1).
  explicit LatencyRing(size_t window)
      : samples_(window == 0 ? 1 : window) {}

  /// Records one sample. Single-writer: only the owning worker calls this.
  void Record(double micros) {
    const uint64_t n = count_.load(std::memory_order_relaxed);
    samples_[n % samples_.size()].store(micros, std::memory_order_relaxed);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Appends the current window (up to `window` most recent samples, in
  /// no particular order) to `out`. Safe from any thread.
  void AppendWindowTo(std::vector<double>* out) const {
    const uint64_t published = count_.load(std::memory_order_acquire);
    const uint64_t n =
        published < samples_.size() ? published : samples_.size();
    for (uint64_t i = 0; i < n; ++i) {
      out->push_back(samples_[i].load(std::memory_order_relaxed));
    }
  }

 private:
  std::vector<std::atomic<double>> samples_;
  std::atomic<uint64_t> count_{0};  // total ever recorded
};

/// \brief Exact percentile of `samples` (modified in place: sorted).
/// Nearest-rank on the sorted merged window — index floor(p * (n - 1)) —
/// the same convention the single-ring daemon used, now applied AFTER
/// merging the per-worker windows so concurrency cannot skew the report
/// (averaging per-worker percentiles would). Returns 0 for an empty set.
double MergedPercentile(std::vector<double>* samples, double p);

/// \brief The request-serving core of the long-running daemon
/// (tools/ocular_served.cpp and the `ocular_cli serve` subcommand).
///
/// Speaks a newline-delimited JSON protocol — one request object per input
/// line, one response object per output line — over stdin/stdout
/// (RunStdioLoop) or a loopback TCP socket (RunTcpLoop). Requests:
///
///   {"cmd":"recommend","model":"default","user":3,"m":10}
///   {"cmd":"recommend","model":"default","user":3,"exclude":[1,7]}
///   {"cmd":"recommend","model":"default","history":[5,1,5,9],"m":10}
///   {"cmd":"update","model":"default","adds":[[12,3],[99,7]]}
///   {"cmd":"models"}      — loaded models and their shapes
///   {"cmd":"ping"}        — liveness probe: uptime + registry generation
///   {"cmd":"stats"}       — DaemonStatsSnapshot as JSON
///   {"cmd":"reload"}      — hot-reload every model (same path as SIGHUP)
///   {"cmd":"quit"}        — end the session (TCP: ends the connection)
///
/// Responses always carry "ok"; failures add "error" and never kill the
/// loop. `recommend` serves through the PR 3 blocked engine (ServeTopM)
/// out of a reusable per-worker ServeWorkspace, excluding the user's
/// training row by default (an explicit "exclude" array overrides it).
/// Rankings are bit-identical to RecommendForAllUsers on the same model
/// and exclusions, from every worker.
///
/// Live catalog (the paper's Section VIII deployment): `recommend` with a
/// `history` array instead of `user` serves an anonymous/new client by
/// folding their purchase history into a user factor (core/fold_in) and
/// ranking it through the same blocked engine — bit-identical to the
/// offline RecommendForHistory oracle on the same model. Histories are
/// untrusted wire input: they are sorted, deduplicated, and stripped of
/// out-of-range ids (counted in stats) before the solve, and a history
/// carrying no signal falls back to the deterministic popularity ranking
/// (the reply's "folded" flag says which path answered). `update` parses
/// interaction deltas (`adds` pairs, optionally growing the catalog) and
/// hands them to the server's Updater (serving/updater.h): a journaled
/// local refresh of a monolithic model's touched rows (RefreshModel), or
/// a fold-in refresh of the
/// touched users of a shardset, persisted by the durable publish (write
/// tmp, fsync, verify, rename, directory sync) and swapped in through the
/// registry generation — in-flight requests keep their lease, workers
/// drain onto the new generation lock-free, exactly the SIGHUP-reload
/// guarantees. Updates require a bound dataset (the training matrix is
/// the delta's base) and serialize on the updater's mutex; reads never
/// block.
///
/// Concurrency: RunTcpLoop serves on the shared epoll transport
/// (serving/line_server.h), which owns every socket, the framing, the
/// admission cap, backpressure, deadlines, and the drain; this class is
/// its LineHandler. Each of the `Options::num_workers` transport workers
/// answers on its own shared-nothing slot: its ServeWorkspace, its
/// latency ring, and a cached shared_ptr lease on the current model
/// generation (re-resolved lock-free when ModelRegistry::generation()
/// moves), so the steady-state request path touches no shared mutable
/// state. A connection has at most one dispatched batch in flight, so
/// pipelined streams stay bit-identical to the batch oracle.
///
/// Hot reload: InstallReloadSignalHandler() latches SIGHUP into a flag
/// that the IO loop and workers poll between requests; the swap itself
/// is ModelRegistry::ReloadAll, so in-flight requests drain on the old
/// mapping and workers pick up the new generation at their next request —
/// no stop-the-world pause, and no request ever observes a torn model
/// (each request resolves its model lease exactly once). See
/// docs/OPERATIONS.md for the walkthrough.
class RequestServer : private LineHandler {
 public:
  /// \brief Tunables of a server instance; the connection limits are the
  /// inherited LineServerOptions.
  struct Options : LineServerOptions {
    /// Per-request serving defaults (m, min_score, tile size); a request's
    /// own fields override m and min_score.
    ServeOptions serve;
    /// Fold-in solver settings for `history` requests.
    FoldInOptions fold_in;
    /// Default refresh rounds of an `update` over its touched rows (a
    /// request's own "sweeps" field overrides). A handful suffices: the
    /// untouched rows are already near-stationary (see
    /// core/incremental.h).
    uint32_t update_sweeps = 5;
    /// Latency samples kept per worker for the p50/p99 report.
    size_t latency_window = 4096;
    /// TCP worker threads (0 = one per hardware thread, at least 1).
    size_t num_workers = 0;
  };

  /// \brief Serves the models of `registry` (not owned; must outlive the
  /// server) with default Options.
  explicit RequestServer(ModelRegistry* registry);
  /// \brief Serves the models of `registry` (not owned; must outlive the
  /// server).
  RequestServer(ModelRegistry* registry, Options options);

  /// \brief Answers one JSON request line with one JSON response line
  /// (no trailing newline). Never throws; malformed input yields an
  /// "ok": false response. Serves on the caller's inline worker slot —
  /// NOT safe to call concurrently with itself or RunStdioLoop (the TCP
  /// pool uses separate per-worker slots and may run concurrently).
  std::string HandleLine(const std::string& line);

  /// \brief The `recommend` verb's structured core: top-`options.m` items
  /// for `user` of model `model_name` through the blocked scoring engine.
  /// `exclude_override` (ascending ids), when non-null, replaces the
  /// model's default training-row exclusion. Same thread-affinity rules
  /// as HandleLine.
  Result<std::vector<ScoredItem>> Recommend(
      const std::string& model_name, uint32_t user, const ServeOptions& options,
      const std::vector<uint32_t>* exclude_override = nullptr);

  /// \brief Reads request lines from `in` until EOF or a `quit` verb,
  /// writing one response line each to `out` (flushed per line; pending
  /// SIGHUP reloads are applied between requests). Single-threaded.
  void RunStdioLoop(std::istream& in, std::ostream& out);

  /// \brief Serves the line protocol on 127.0.0.1:`port` through the
  /// shared transport (LineServer::Run: 0 = kernel-assigned port, see
  /// bound_port(); a `quit` verb or client EOF ends that connection, not
  /// the server). Returns on a socket setup error, after a latched
  /// shutdown drains (printing one final `drained:` stats line to
  /// stderr), or, with `max_accepts` > 0, after that many connections
  /// have been accepted AND every open connection has finished — the
  /// bounded form is how tests and benches end the loop without signals.
  Status RunTcpLoop(uint16_t port, uint64_t max_accepts = 0);

  /// \brief The port RunTcpLoop is listening on, or 0 when it is not.
  uint16_t bound_port() const { return transport_.bound_port(); }

  /// \brief Asks RunTcpLoop to drain and return, as a latched SIGTERM
  /// does but for this server only (LineServer::Stop). Any thread.
  void Stop() { transport_.Stop(); }

  /// \brief The update pipeline behind the `update` verb; startup code
  /// runs Updater::RecoverJournal on it before serving.
  Updater& updater() { return updater_; }

  /// \brief Current counters + exact merged latency percentiles.
  DaemonStatsSnapshot Stats() const;

  /// \brief True once a handled request asked to quit (stdio path).
  bool quit_requested() const { return quit_requested_; }

  /// \brief Worker threads the TCP loop will run (Options::num_workers
  /// resolved against the hardware).
  size_t num_workers() const { return num_tcp_workers_; }

  /// \brief Installs the process-wide SIGHUP handler that requests a
  /// hot reload (idempotent; async-signal-safe handler, it only sets a
  /// flag).
  static void InstallReloadSignalHandler();

  /// \brief Applies a pending SIGHUP reload if one is latched; returns
  /// whether a reload ran. Also callable directly (the `reload` verb).
  /// Thread-safe: the latch guarantees exactly one thread runs the swap.
  bool ConsumePendingReload();

 private:
  /// Everything one serving thread owns: scratch buffers, its latency
  /// shard, and its cached model leases. Shared-nothing — exactly one
  /// thread touches a slot's non-atomic members at any time; the atomics
  /// are read lock-free by Stats(). Cacheline-aligned so adjacent
  /// workers' counters do not false-share.
  struct alignas(64) WorkerState {
    explicit WorkerState(size_t latency_window) : latency(latency_window) {}

    ServeWorkspace workspace;
    std::vector<uint32_t> exclude_scratch;
    std::vector<uint32_t> history_scratch;  // sanitized request history
    FoldInWorkspace fold_in;                // per-request fold-in solve

    /// Model leases cached against the registry generation: a request
    /// resolves its model once, so a concurrent hot swap can never hand
    /// it factors from two generations.
    uint64_t seen_generation = 0;
    std::map<std::string, std::shared_ptr<const ServableModel>> leases;

    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> fold_in_requests{0};
    std::atomic<uint64_t> dropped_history_ids{0};
    std::atomic<uint64_t> shard_requests{0};
    LatencyRing latency;
  };

  WorkerState* InlineWorker() { return workers_.back().get(); }
  void RefreshLeases(WorkerState* w);
  std::shared_ptr<const ServableModel> LeaseModel(WorkerState* w,
                                                  const std::string& name);
  /// `*shard_out` (when non-null) reports which shard served the user:
  /// the shard index for a sharded binding, -1 for a monolithic store —
  /// so HandleRecommend can surface the shard hit without re-leasing.
  Result<std::vector<ScoredItem>> RecommendOn(
      WorkerState* w, const std::string& model_name, uint32_t user,
      const ServeOptions& options,
      const std::vector<uint32_t>* exclude_override,
      int64_t* shard_out = nullptr);
  std::string HandleLineOn(WorkerState* w, const std::string& line,
                           bool* quit);
  std::string HandleRecommend(WorkerState* w, const JsonValue& request);
  std::string HandleHistory(WorkerState* w, const JsonValue& history,
                            const std::string& model_name,
                            const ServeOptions& serve);
  std::string HandleUpdate(WorkerState* w, const JsonValue& request);
  std::string HandleModels();
  std::string HandlePing();
  std::string HandleStats();
  std::string HandleReload(WorkerState* w);
  std::string ErrorReply(WorkerState* w, const std::string& message);

  // LineHandler: the transport's workers answer on their own slots.
  std::string ServeLine(size_t worker, const std::string& line,
                        bool* quit) override;
  void OnWorkerIdle(size_t worker) override;
  void OnTick() override;
  std::string ConnectionError(const std::string& message,
                              uint32_t code) override;

  ModelRegistry* registry_;
  Options options_;
  size_t num_tcp_workers_ = 1;
  bool quit_requested_ = false;
  /// Construction instant; the `ping` verb's uptime_ms is measured from
  /// here, so a health prober can tell a long-lived replica from one
  /// that silently restarted between probes.
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  /// Slots [0, num_tcp_workers_) belong to the TCP pool; the extra slot
  /// at the back serves HandleLine/Recommend/RunStdioLoop callers. The
  /// vector itself is immutable after construction.
  std::vector<std::unique_ptr<WorkerState>> workers_;

  LineServer transport_;
  Updater updater_;

  std::atomic<uint64_t> reloads_{0};
};

}  // namespace ocular

#endif  // OCULAR_SERVING_DAEMON_H_
