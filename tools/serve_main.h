// Shared driver of the `ocular_served` binary and the `ocular_cli serve`
// subcommand: parses --models/--datasets specs, fills a ModelRegistry, and
// runs the RequestServer over stdio or TCP.
//
// Flags:
//   --models=name=path[,name=path...]    binary v2 model files (required)
//   --datasets=name=path[,...]           optional per-model exclusion data
//   --delimiter=C                        dataset delimiter (default tab)
//   --port=N                             TCP on 127.0.0.1:N (default stdio)
//   --m=N                                default top-M per request (50)
//   --workers=N                          TCP worker threads (0 = one per
//                                        hardware thread)
//   --accept-queue=N                     dispatch-queue depth between the
//                                        IO thread and the workers (128);
//                                        a full queue is backpressure,
//                                        not shedding
//   --max-connections=N                  open connections admitted before
//                                        new arrivals get a 503 shed
//                                        (0 = unlimited)
//   --max-outbound-bytes=N               per-connection reply backlog a
//                                        slow consumer may hold before
//                                        disconnect (8 MiB)
//   --update-sweeps=N                    default refresh rounds over the
//                                        touched rows an `update` request
//                                        runs when it does not set its own
//                                        "sweeps" (5)
//   --max-request-bytes=N                longest request line before a
//                                        413-style reply + close (1 MiB)
//   --io-timeout-ms=N                    IO-loop deadline sweep tick and
//                                        write-stall deadline (1000;
//                                        0 = no deadlines)
//   --idle-timeout-ms=N                  close connections with no complete
//                                        request for this long (30000;
//                                        0 = never)
//   --retry-after-ms=N                   backoff hint in 503 shed replies
//                                        (50)
//
// The process installs the SIGHUP hot-reload handler and the
// SIGTERM/SIGINT graceful-drain handler before serving, and replays each
// model's update journal (crash recovery) before accepting requests.

#ifndef OCULAR_TOOLS_SERVE_MAIN_H_
#define OCULAR_TOOLS_SERVE_MAIN_H_

#include <signal.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "data/loaders.h"
#include "serving/daemon.h"
#include "serving/registry.h"

namespace ocular {

/// Splits "name=path[,name=path...]" into pairs (first '=' delimits).
inline Result<std::vector<std::pair<std::string, std::string>>>
ParseNamePathSpecs(const std::string& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::string_view spec : Split(specs, ',')) {
    const size_t eq = spec.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == spec.size()) {
      return Status::InvalidArgument("malformed spec '" + std::string(spec) +
                                     "' (expected name=path)");
    }
    out.emplace_back(std::string(spec.substr(0, eq)),
                     std::string(spec.substr(eq + 1)));
  }
  return out;
}

/// Loads every --models (and --datasets) entry into `registry`.
inline Status LoadRegistryFromFlags(const Flags& flags,
                                    ModelRegistry* registry) {
  OCULAR_ASSIGN_OR_RETURN(std::string models_spec,
                          flags.RequireString("models"));
  OCULAR_ASSIGN_OR_RETURN(auto model_specs, ParseNamePathSpecs(models_spec));

  std::vector<std::pair<std::string, std::string>> dataset_specs;
  if (flags.Has("datasets")) {
    OCULAR_ASSIGN_OR_RETURN(dataset_specs,
                            ParseNamePathSpecs(flags.GetString("datasets")));
  }
  for (const auto& [name, model_path] : model_specs) {
    std::shared_ptr<const CsrMatrix> train;
    for (const auto& [data_name, data_path] : dataset_specs) {
      if (data_name != name) continue;
      CsvOptions opts;
      const std::string delim = flags.GetString("delimiter", "\t");
      opts.delimiter = delim.empty() ? '\t' : delim[0];
      // Keep raw ids so dataset row u IS model/request user u — compact
      // remapping would silently bind exclusions to the wrong users.
      opts.compact_ids = flags.GetBool("compact-ids", false);
      OCULAR_ASSIGN_OR_RETURN(Dataset ds, LoadCsv(data_path, opts));
      train = std::make_shared<const CsrMatrix>(ds.interactions());
      break;
    }
    OCULAR_RETURN_IF_ERROR(registry->Load(name, model_path, std::move(train)));
  }
  return Status::OK();
}

/// Full serve command: registry + SIGHUP handler + stdio/TCP loop.
/// Returns a process exit code.
inline int RunServeCommand(const Flags& flags) {
  ModelRegistry registry;
  Status st = LoadRegistryFromFlags(flags, &registry);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  RequestServer::Options options;
  Status bad_flag;  // the first out-of-range flag
  options.serve.m = static_cast<uint32_t>(flags.GetInt("m", 50));
  // 0 = one per hardware thread
  options.num_workers = flags.GetIntInRange("workers", 0, 0, 4096, &bad_flag);
  options.accept_queue =
      flags.GetIntInRange("accept-queue", 128, 1, 1 << 20, &bad_flag);
  options.max_connections =  // 0 = unlimited
      flags.GetIntInRange("max-connections", 0, 0, 1 << 20, &bad_flag);
  options.max_outbound_bytes = flags.GetIntInRange(
      "max-outbound-bytes", 8 << 20, 64 << 10, 1 << 30, &bad_flag);
  options.update_sweeps = static_cast<uint32_t>(
      flags.GetIntInRange("update-sweeps", 5, 1, 100000, &bad_flag));
  options.max_request_bytes = flags.GetIntInRange(
      "max-request-bytes", 1 << 20, 1024, 1 << 30, &bad_flag);
  options.io_timeout_ms = static_cast<uint32_t>(
      flags.GetIntInRange("io-timeout-ms", 1000, 0, 3600000, &bad_flag));
  options.idle_timeout_ms = static_cast<uint32_t>(
      flags.GetIntInRange("idle-timeout-ms", 30000, 0, 86400000, &bad_flag));
  options.retry_after_ms = static_cast<uint32_t>(
      flags.GetIntInRange("retry-after-ms", 50, 1, 60000, &bad_flag));
  // 0 = stdio
  const int64_t port = flags.GetIntInRange("port", 0, 0, 65535, &bad_flag);
  if (!bad_flag.ok()) {
    std::fprintf(stderr, "%s\n", bad_flag.message().c_str());
    return 1;
  }
  RequestServer server(&registry, options);
  RequestServer::InstallReloadSignalHandler();
  LineServer::InstallShutdownSignalHandler();
  // The daemon's socket writes use MSG_NOSIGNAL, but ignore SIGPIPE
  // process-wide too: no disconnecting client may take the server down.
  ::signal(SIGPIPE, SIG_IGN);

  // Crash recovery before the first request: re-merge journaled update
  // deltas into each model's training base, and resolve any update the
  // previous incarnation crashed inside (replay or heal — see
  // Updater::RecoverJournal). Refusing to serve on a recovery error
  // beats silently serving a model that is missing acked updates.
  for (const std::string& name : registry.Names()) {
    auto recovered = server.updater().RecoverJournal(name);
    if (!recovered.ok()) {
      std::fprintf(stderr, "journal recovery for '%s' failed: %s\n",
                   name.c_str(), recovered.status().ToString().c_str());
      return 1;
    }
    if (recovered->applied_merged > 0 || recovered->replayed_pending ||
        recovered->healed_commit) {
      std::fprintf(
          stderr,
          "journal recovery for '%s': %llu committed updates re-merged%s%s%s\n",
          name.c_str(),
          static_cast<unsigned long long>(recovered->applied_merged),
          recovered->replayed_pending ? ", crashed update replayed" : "",
          recovered->healed_commit ? ", missing commit healed" : "",
          recovered->torn_tail ? ", torn tail discarded" : "");
    }
  }

  for (const std::string& name : registry.Names()) {
    auto model = registry.Get(name);
    std::fprintf(stderr,
                 "loaded '%s': %s %u users x %u items, K=%u (%zu MB, %u "
                 "shard%s)\n",
                 name.c_str(), model->meta().algorithm.c_str(),
                 model->num_users(), model->num_items(), model->k(),
                 model->mapped_bytes() >> 20, model->num_shards(),
                 model->num_shards() == 1 ? "" : "s");
  }
  if (port > 0) {
    std::fprintf(stderr,
                 "serving on 127.0.0.1:%lld with %zu workers "
                 "(SIGHUP reloads, SIGTERM drains)\n",
                 static_cast<long long>(port), server.num_workers());
    st = server.RunTcpLoop(static_cast<uint16_t>(port));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "serving on stdin/stdout (SIGHUP reloads)\n");
    server.RunStdioLoop(std::cin, std::cout);
  }
  return 0;
}

}  // namespace ocular

#endif  // OCULAR_TOOLS_SERVE_MAIN_H_
