#include "serving/daemon.h"

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "serving/render.h"

namespace ocular {

namespace {

// SIGHUP latch. A signal handler may only touch async-signal-safe state;
// the actual reload runs on a serving thread between requests.
std::atomic<bool> g_pending_reload{false};

void OnSighup(int /*signum*/) {
  g_pending_reload.store(true, std::memory_order_relaxed);
}

// Reads a non-negative integer field, with bounds checking against
// `max_value`. Returns defaults when the field is absent.
Result<uint64_t> GetUIntField(const JsonValue& request, const char* key,
                              uint64_t def, uint64_t max_value) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr) return def;
  if (!field->is_number() || field->number() < 0.0 ||
      field->number() != std::floor(field->number())) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a non-negative integer");
  }
  if (field->number() > static_cast<double>(max_value)) {
    return Status::InvalidArgument(std::string("'") + key + "' out of range");
  }
  return static_cast<uint64_t>(field->number());
}

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// How long an injected "daemon.handle" stall parks the worker. Long
// enough that any sane front-tier deadline or hedge threshold fires
// first, short enough that a drill's requests still drain in test time.
constexpr uint32_t kHandleStallMs = 1000;

size_t ResolveWorkerCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

double MergedPercentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = std::min(
      samples->size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples->size() - 1)));
  return (*samples)[idx];
}

RequestServer::RequestServer(ModelRegistry* registry)
    : RequestServer(registry, Options()) {}

RequestServer::RequestServer(ModelRegistry* registry, Options options)
    : registry_(registry),
      options_(options),
      num_tcp_workers_(ResolveWorkerCount(options.num_workers)),
      transport_(options_),
      updater_(registry, options_.fold_in) {
  // TCP pool slots plus the inline slot for HandleLine/stdio callers.
  // The slot VECTOR must be complete here — Stats() iterates it lock-free
  // from any thread, so it can never grow later — but only the inline
  // slot pre-sizes its serving scratch: pool slots warm up when (and if)
  // RunTcpLoop actually starts their threads, so stdio/library users
  // don't pay for a pool they never run.
  workers_.reserve(num_tcp_workers_ + 1);
  for (size_t w = 0; w < num_tcp_workers_ + 1; ++w) {
    workers_.push_back(std::make_unique<WorkerState>(
        std::max<size_t>(options_.latency_window, 1)));
  }
  InlineWorker()->workspace.Reserve(options_.serve.m,
                                    options_.serve.block_items);
}

void RequestServer::InstallReloadSignalHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSighup;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a SIGHUP arriving mid-accept/mid-read surfaces as EINTR
  // so the serving loop can apply the reload promptly.
  ::sigaction(SIGHUP, &sa, nullptr);
}

bool RequestServer::ConsumePendingReload() {
  if (!g_pending_reload.exchange(false, std::memory_order_relaxed)) {
    return false;
  }
  // Failed models keep their previous generation serving; surface the
  // failure (SIGHUP has no reply channel) and do not count it as a
  // performed reload, so stats can't report a stale model as refreshed.
  const Status status = registry_->ReloadAll();
  if (!status.ok()) {
    std::fprintf(stderr, "hot reload failed: %s\n",
                 status.ToString().c_str());
    return true;
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RequestServer::RefreshLeases(WorkerState* w) {
  const uint64_t generation = registry_->generation();
  if (generation != w->seen_generation) {
    w->leases.clear();
    w->seen_generation = generation;
  }
}

std::shared_ptr<const ServableModel> RequestServer::LeaseModel(
    WorkerState* w, const std::string& name) {
  // Lock-free fast path: the lease survives until the registry publishes
  // a new generation, at which point this worker drops its cache and
  // re-resolves — draining onto the new model without a global pause.
  RefreshLeases(w);
  auto it = w->leases.find(name);
  if (it != w->leases.end()) return it->second;
  std::shared_ptr<const ServableModel> model = registry_->Get(name);
  if (model != nullptr) w->leases.emplace(name, model);
  return model;
}

Result<std::vector<ScoredItem>> RequestServer::RecommendOn(
    WorkerState* w, const std::string& model_name, uint32_t user,
    const ServeOptions& options,
    const std::vector<uint32_t>* exclude_override, int64_t* shard_out) {
  // Resolved exactly once per request: the whole answer comes from one
  // model generation even if a hot swap lands mid-request.
  std::shared_ptr<const ServableModel> model = LeaseModel(w, model_name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + model_name + "'");
  }
  if (user >= model->num_users()) {
    return Status::OutOfRange("user " + std::to_string(user) +
                              " out of range (model has " +
                              std::to_string(model->num_users()) +
                              " users)");
  }
  if (model->sharded) {
    w->shard_requests.fetch_add(1, std::memory_order_relaxed);
    if (shard_out != nullptr) *shard_out = model->shard_of(user);
  } else if (shard_out != nullptr) {
    *shard_out = -1;
  }
  std::span<const uint32_t> exclude =
      exclude_override != nullptr ? std::span<const uint32_t>(*exclude_override)
                                  : model->ExcludeRow(user);
  // More than the whole catalog is the whole catalog: clamping keeps a
  // hostile {"m":4000000000} from forcing a selection-buffer reservation
  // sized to the request instead of to the model.
  ServeOptions bounded = options;
  bounded.m = std::min(bounded.m, model->num_items());
  auto ranked =
      ServeTopM(*model->recommender, user, exclude, bounded, &w->workspace);
  return std::vector<ScoredItem>(ranked.begin(), ranked.end());
}

Result<std::vector<ScoredItem>> RequestServer::Recommend(
    const std::string& model_name, uint32_t user, const ServeOptions& options,
    const std::vector<uint32_t>* exclude_override) {
  return RecommendOn(InlineWorker(), model_name, user, options,
                     exclude_override);
}

std::string RequestServer::ErrorReply(WorkerState* w,
                                      const std::string& message) {
  w->errors.fetch_add(1, std::memory_order_relaxed);
  return RenderError(message);
}

std::string RequestServer::HandleRecommend(WorkerState* w,
                                           const JsonValue& request) {
  std::string model_name = "default";
  if (const JsonValue* m = request.Find("model"); m != nullptr) {
    if (!m->is_string()) return ErrorReply(w, "'model' must be a string");
    model_name = m->string();
  }
  auto m = GetUIntField(request, "m", options_.serve.m, UINT32_MAX);
  if (!m.ok()) return ErrorReply(w, m.status().message());

  ServeOptions serve = options_.serve;
  serve.m = static_cast<uint32_t>(*m);
  if (const JsonValue* ms = request.Find("min_score"); ms != nullptr) {
    if (!ms->is_number()) return ErrorReply(w, "'min_score' must be a number");
    serve.min_score = ms->number();
  }

  // Anonymous/new users recommend by history (fold-in) instead of by
  // stored user id — the two addressing modes are mutually exclusive.
  if (const JsonValue* history = request.Find("history"); history != nullptr) {
    if (request.Find("user") != nullptr) {
      return ErrorReply(w, "'user' and 'history' are mutually exclusive");
    }
    if (request.Find("exclude") != nullptr) {
      return ErrorReply(
          w, "'exclude' is not supported with 'history' (the history itself "
             "is excluded)");
    }
    return HandleHistory(w, *history, model_name, serve);
  }

  auto user = GetUIntField(request, "user", 0, UINT32_MAX);
  if (!user.ok()) return ErrorReply(w, user.status().message());
  if (request.Find("user") == nullptr) {
    return ErrorReply(w, "'user' or 'history' is required");
  }

  const std::vector<uint32_t>* exclude_override = nullptr;
  if (const JsonValue* ex = request.Find("exclude"); ex != nullptr) {
    if (!ex->is_array()) {
      return ErrorReply(w, "'exclude' must be an array of item ids");
    }
    w->exclude_scratch.clear();
    for (const JsonValue& e : ex->array()) {
      if (!e.is_number() || e.number() < 0.0 ||
          e.number() != std::floor(e.number()) || e.number() > UINT32_MAX) {
        return ErrorReply(w, "'exclude' entries must be item ids");
      }
      w->exclude_scratch.push_back(static_cast<uint32_t>(e.number()));
    }
    std::sort(w->exclude_scratch.begin(), w->exclude_scratch.end());
    w->exclude_scratch.erase(
        std::unique(w->exclude_scratch.begin(), w->exclude_scratch.end()),
        w->exclude_scratch.end());
    exclude_override = &w->exclude_scratch;
  }

  int64_t shard = -1;
  auto ranked = RecommendOn(w, model_name, static_cast<uint32_t>(*user), serve,
                            exclude_override, &shard);
  if (!ranked.ok()) return ErrorReply(w, ranked.status().ToString());

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("model");
  writer.String(model_name);
  writer.Key("user");
  writer.UInt(*user);
  if (shard >= 0) {
    // Only sharded bindings carry the field: monolithic replies stay
    // byte-identical to every previous release, which the scale test's
    // oracle comparison and old clients both rely on.
    writer.Key("shard");
    writer.UInt(static_cast<uint64_t>(shard));
  }
  WriteRankedItems(&writer, *ranked);
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleHistory(WorkerState* w,
                                         const JsonValue& history,
                                         const std::string& model_name,
                                         const ServeOptions& serve) {
  if (!history.is_array()) {
    return ErrorReply(w, "'history' must be an array of item ids");
  }
  w->history_scratch.clear();
  for (const JsonValue& e : history.array()) {
    if (!e.is_number() || e.number() < 0.0 ||
        e.number() != std::floor(e.number()) || e.number() > UINT32_MAX) {
      return ErrorReply(w, "'history' entries must be item ids");
    }
    w->history_scratch.push_back(static_cast<uint32_t>(e.number()));
  }
  // One lease for the whole request, same as the stored-user path.
  std::shared_ptr<const ServableModel> model = LeaseModel(w, model_name);
  if (model == nullptr) {
    return ErrorReply(
        w, Status::NotFound("no model named '" + model_name + "'").ToString());
  }
  if (model->fold_in == nullptr) {
    return ErrorReply(w, Status::FailedPrecondition(
                             "model '" + model_name +
                             "' does not support fold-in (not an OCuLaR "
                             "probability model)")
                             .ToString());
  }
  const FoldInContext& ctx = *model->fold_in;
  const HistorySanitizeResult sanitized =
      SanitizeHistory(&w->history_scratch, ctx.num_items());
  if (sanitized.dropped_out_of_range > 0) {
    w->dropped_history_ids.fetch_add(sanitized.dropped_out_of_range,
                                     std::memory_order_relaxed);
  }
  w->fold_in_requests.fetch_add(1, std::memory_order_relaxed);

  auto rec = RecommendForHistoryInto(
      ctx, w->history_scratch, serve.m, serve.min_score, serve.block_items,
      options_.fold_in, &w->fold_in, &w->workspace.tile,
      &w->workspace.selection);
  if (!rec.ok()) return ErrorReply(w, rec.status().ToString());

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("model");
  writer.String(model_name);
  writer.Key("folded");
  writer.Bool(rec->folded);
  writer.Key("dropped");
  writer.UInt(sanitized.dropped_out_of_range);
  WriteRankedItems(&writer, rec->items);
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleUpdate(WorkerState* w,
                                        const JsonValue& request) {
  std::string model_name = "default";
  if (const JsonValue* m = request.Find("model"); m != nullptr) {
    if (!m->is_string()) return ErrorReply(w, "'model' must be a string");
    model_name = m->string();
  }
  const JsonValue* adds_field = request.Find("adds");
  if (adds_field == nullptr || !adds_field->is_array()) {
    return ErrorReply(w, "'adds' must be an array of [user, item] pairs");
  }
  std::vector<std::pair<uint32_t, uint32_t>> adds;
  adds.reserve(adds_field->array().size());
  for (const JsonValue& pair : adds_field->array()) {
    if (!pair.is_array() || pair.array().size() != 2) {
      return ErrorReply(w, "'adds' must be an array of [user, item] pairs");
    }
    uint32_t ids[2];
    for (int n = 0; n < 2; ++n) {
      const JsonValue& v = pair.array()[n];
      if (!v.is_number() || v.number() < 0.0 ||
          v.number() != std::floor(v.number()) || v.number() > UINT32_MAX) {
        return ErrorReply(w, "'adds' entries must be non-negative ids");
      }
      ids[n] = static_cast<uint32_t>(v.number());
    }
    adds.emplace_back(ids[0], ids[1]);
  }
  auto num_users = GetUIntField(request, "num_users", 0, UINT32_MAX);
  if (!num_users.ok()) return ErrorReply(w, num_users.status().message());
  auto num_items = GetUIntField(request, "num_items", 0, UINT32_MAX);
  if (!num_items.ok()) return ErrorReply(w, num_items.status().message());
  auto sweeps =
      GetUIntField(request, "sweeps", options_.update_sweeps, 100000);
  if (!sweeps.ok()) return ErrorReply(w, sweeps.status().message());
  if (*sweeps == 0) return ErrorReply(w, "'sweeps' must be at least 1");
  // JSON numbers are doubles: cap explicit seeds at 2^53 so every
  // accepted value round-trips exactly.
  auto seed = GetUIntField(request, "seed", 0, uint64_t{1} << 53);
  if (!seed.ok()) return ErrorReply(w, seed.status().message());

  const double start_us = NowMicros();
  auto outcome = updater_.Apply(model_name, adds,
                                static_cast<uint32_t>(*num_users),
                                static_cast<uint32_t>(*num_items),
                                static_cast<uint32_t>(*sweeps), *seed);
  if (!outcome.ok()) return ErrorReply(w, outcome.status().ToString());

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("model");
  writer.String(model_name);
  writer.Key("users");
  writer.UInt(outcome->num_users);
  writer.Key("items");
  writer.UInt(outcome->num_items);
  writer.Key("sweeps_run");
  writer.UInt(outcome->sweeps_run);
  writer.Key("converged");
  writer.Bool(outcome->converged);
  if (outcome->sharded) {
    writer.Key("shards_touched");
    writer.UInt(outcome->shards_touched);
    writer.Key("users_refreshed");
    writer.UInt(outcome->users_refreshed);
  }
  writer.Key("publish_us");
  writer.Double(NowMicros() - start_us);
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleModels() {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("models");
  w.BeginArray();
  for (const std::string& name : registry_->Names()) {
    std::shared_ptr<const ServableModel> model = registry_->Get(name);
    if (model == nullptr) continue;  // raced with an unload
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("algorithm");
    w.String(model->meta().algorithm);
    w.Key("users");
    w.UInt(model->num_users());
    w.Key("items");
    w.UInt(model->num_items());
    w.Key("k");
    w.UInt(model->k());
    w.Key("mapped_bytes");
    w.UInt(model->mapped_bytes());
    w.Key("sharded");
    w.Bool(model->sharded);
    w.Key("shards");
    w.UInt(model->num_shards());
    w.Key("path");
    w.String(model->model_path);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string RequestServer::HandlePing() {
  // The health-probe verb: a fleet front tier pings replicas on an
  // interval, so the reply must stay cheap and unblockable — no model
  // lease is resolved (a probe cannot stall behind a reload or an
  // update publish) and no per-worker scratch is touched. uptime_ms
  // lets a prober tell a long-lived replica from one that silently
  // restarted; generation says which model swap it is serving.
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("uptime_ms");
  w.UInt(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count()));
  w.Key("generation");
  w.UInt(registry_->generation());
  w.EndObject();
  return w.str();
}

std::string RequestServer::HandleStats() {
  const DaemonStatsSnapshot snapshot = Stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("models_loaded");
  w.UInt(snapshot.models_loaded);
  w.Key("workers");
  w.UInt(snapshot.workers);
  w.Key("requests_served");
  w.UInt(snapshot.requests_served);
  w.Key("errors");
  w.UInt(snapshot.errors);
  w.Key("reloads");
  w.UInt(snapshot.reloads);
  WriteConnectionStats(snapshot, &w);
  w.Key("fold_in_requests");
  w.UInt(snapshot.fold_in_requests);
  w.Key("history_dropped_ids");
  w.UInt(snapshot.history_dropped_ids);
  w.Key("shard_requests");
  w.UInt(snapshot.shard_requests);
  w.Key("updates");
  w.UInt(snapshot.updates);
  w.Key("journal_recovered");
  w.UInt(snapshot.journal_recovered);
  w.Key("journal_replays");
  w.UInt(snapshot.journal_replays);
  w.Key("p50_latency_us");
  w.Double(snapshot.p50_latency_us);
  w.Key("p99_latency_us");
  w.Double(snapshot.p99_latency_us);
  w.EndObject();
  return w.str();
}

std::string RequestServer::HandleReload(WorkerState* w) {
  Status status = registry_->ReloadAll();
  if (!status.ok()) return ErrorReply(w, status.ToString());
  reloads_.fetch_add(1, std::memory_order_relaxed);
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("reloaded");
  writer.UInt(registry_->size());
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleLine(const std::string& line) {
  bool quit = false;
  std::string reply = HandleLineOn(InlineWorker(), line, &quit);
  if (quit) quit_requested_ = true;
  return reply;
}

std::string RequestServer::HandleLineOn(WorkerState* w,
                                        const std::string& line, bool* quit) {
  const double start_us = NowMicros();
  // Injected handling stall ("daemon.handle"): the worker sleeps a fixed
  // second before answering — a hung-but-alive replica (allocator stall,
  // page-cache miss storm, runaway request ahead in the pipeline), which
  // is exactly what the fleet front tier's deadlines and hedged requests
  // are tested against. The kill@C grammar turns the same point into a
  // mid-request SIGKILL window: the process dies while a request is in
  // flight and the reply never leaves.
  if (fault::Maybe("daemon.handle")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kHandleStallMs));
  }
  std::string reply;
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    reply = ErrorReply(w, parsed.status().ToString());
  } else if (!parsed->is_object()) {
    reply = ErrorReply(w, "request must be a JSON object");
  } else {
    std::string cmd = "recommend";
    bool bad_cmd = false;
    if (const JsonValue* c = parsed->Find("cmd"); c != nullptr) {
      if (c->is_string()) {
        cmd = c->string();
      } else {
        bad_cmd = true;
      }
    }
    if (bad_cmd) {
      reply = ErrorReply(w, "'cmd' must be a string");
    } else if (cmd == "recommend") {
      reply = HandleRecommend(w, *parsed);
    } else if (cmd == "update") {
      reply = HandleUpdate(w, *parsed);
    } else if (cmd == "models") {
      reply = HandleModels();
    } else if (cmd == "ping") {
      reply = HandlePing();
    } else if (cmd == "stats") {
      reply = HandleStats();
    } else if (cmd == "reload") {
      reply = HandleReload(w);
    } else if (cmd == "quit") {
      *quit = true;
      reply = RenderQuitReply();
    } else {
      reply = ErrorReply(w, "unknown cmd '" + cmd + "'");
    }
  }
  w->requests.fetch_add(1, std::memory_order_relaxed);
  w->latency.Record(NowMicros() - start_us);
  return reply;
}

DaemonStatsSnapshot RequestServer::Stats() const {
  DaemonStatsSnapshot snapshot;
  static_cast<ConnectionStats&>(snapshot) = transport_.Stats();
  snapshot.models_loaded = registry_->size();
  snapshot.workers = num_tcp_workers_;
  snapshot.reloads = reloads_.load(std::memory_order_relaxed);
  snapshot.updates = updater_.updates();
  snapshot.journal_recovered = updater_.journal_recovered();
  snapshot.journal_replays = updater_.journal_replays();
  std::vector<double> window;
  for (const auto& w : workers_) {
    snapshot.requests_served += w->requests.load(std::memory_order_relaxed);
    snapshot.errors += w->errors.load(std::memory_order_relaxed);
    snapshot.fold_in_requests +=
        w->fold_in_requests.load(std::memory_order_relaxed);
    snapshot.history_dropped_ids +=
        w->dropped_history_ids.load(std::memory_order_relaxed);
    snapshot.shard_requests += w->shard_requests.load(std::memory_order_relaxed);
    w->latency.AppendWindowTo(&window);
  }
  snapshot.p50_latency_us = MergedPercentile(&window, 0.50);
  snapshot.p99_latency_us = MergedPercentile(&window, 0.99);
  return snapshot;
}

void RequestServer::RunStdioLoop(std::istream& in, std::ostream& out) {
  std::string line;
  std::string partial;  // prefix extracted before an interrupted read
  while (!quit_requested_) {
    ConsumePendingReload();
    if (LineServer::ConsumeShutdownRequest()) {
      // SIGTERM drain, stdio flavor: every request read so far has been
      // answered and flushed (one write per line), so just stop reading.
      std::fprintf(stderr, "drained: %s\n", HandleStats().c_str());
      break;
    }
    errno = 0;
    if (!std::getline(in, line)) {
      // A SIGHUP arriving while blocked in getline fails the stream with
      // EINTR (the handler is installed without SA_RESTART); that is a
      // reload request, not end of input — recover and keep serving. The
      // stream flags are not trustworthy here (libstdc++ reports the
      // interrupted read as eof), so the errno check decides, and the
      // C-stdio error state backing std::cin must be cleared too. Any
      // half-read line is carried over so the request stream stays
      // aligned.
      if (errno == EINTR) {
        partial += line;
        in.clear();
        if (&in == &std::cin) std::clearerr(stdin);
        continue;
      }
      break;
    }
    if (!partial.empty()) {
      line = partial + line;
      partial.clear();
    }
    if (line.empty()) continue;
    out << HandleLine(line) << '\n';
    out.flush();
  }
}

std::string RequestServer::ServeLine(size_t worker, const std::string& line,
                                     bool* quit) {
  return HandleLineOn(workers_[worker].get(), line, quit);
}

void RequestServer::OnWorkerIdle(size_t worker) {
  // Drop stale model leases BEFORE parking: an idle worker must not pin a
  // reloaded-away generation's mapping while it waits.
  workers_[worker]->leases.clear();
}

void RequestServer::OnTick() { ConsumePendingReload(); }

std::string RequestServer::ConnectionError(const std::string& message,
                                           uint32_t code) {
  // Called on the transport's IO thread; the inline slot's errors
  // counter is atomic, so counting there is safe.
  InlineWorker()->errors.fetch_add(1, std::memory_order_relaxed);
  return RenderError(message, code);
}

Status RequestServer::RunTcpLoop(uint16_t port, uint64_t max_accepts) {
  for (size_t i = 0; i < num_tcp_workers_; ++i) {
    workers_[i]->workspace.Reserve(options_.serve.m,
                                   options_.serve.block_items);
  }
  const Status status = transport_.Run(port, num_tcp_workers_, this,
                                       max_accepts);
  // Drain exit: consume the latch (so a test can serve again in this
  // process) and flush one final stats line — the last thing an operator
  // sees from a SIGTERMed daemon is what it did with its life.
  if (LineServer::ConsumeShutdownRequest()) {
    std::fprintf(stderr, "drained: %s\n", HandleStats().c_str());
  }
  return status;
}

}  // namespace ocular
