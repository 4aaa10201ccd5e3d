// ocular_served — long-running model server for OCuLaR binary models.
//
// Holds one or more mmapped binary v2 models resident (ModelRegistry) and
// answers newline-delimited JSON requests through the blocked scoring
// engine, over stdin/stdout by default or a loopback TCP port with
// --port=N. SIGHUP hot-reloads every model file atomically; in-flight
// requests finish on the old mapping.
//
// Examples:
//   ocular_served --models=default=/models/b2b.oclr \
//       --datasets=default=/data/b2b.tsv
//   ocular_served --models=a=/models/a.oclr,b=/models/b.oclr --port=7700
//
//   $ echo '{"cmd":"recommend","user":3,"m":5}' | ocular_served \
//       --models=default=/models/b2b.oclr
//   {"ok":true,"model":"default","user":3,"items":[...]}
//
// See docs/OPERATIONS.md for the full train -> save -> serve -> hot-reload
// walkthrough and the protocol reference in src/serving/daemon.h.

#include "tools/serve_main.h"

namespace ocular {
namespace {

constexpr char kUsage[] = R"(usage: ocular_served --models=name=path[,...]
        [--datasets=name=path[,...]] [--delimiter=C] [--port=N] [--m=N]
        [--workers=N] [--accept-queue=N] [--update-sweeps=N]
        [--max-request-bytes=N] [--io-timeout-ms=N] [--idle-timeout-ms=N]
        [--max-connections=N] [--max-outbound-bytes=N] [--retry-after-ms=N]

Serves binary v2 (.oclr) model files; convert v1 text models first with
`ocular_cli convert`. Requests are one JSON object per line:
  {"cmd":"recommend","model":"default","user":3,"m":10}
  {"cmd":"models"} | {"cmd":"stats"} | {"cmd":"reload"} | {"cmd":"quit"}

With --port the daemon multiplexes every connection on one epoll IO
thread feeding --workers serving threads (default: one per hardware
thread); --accept-queue bounds the requests waiting for a worker (a full
queue is backpressure, not a shed). Arrivals beyond --max-connections,
or while the process is out of fds, are shed with a
{"ok":false,...,"code":503,"retry_after_ms":N} reply. Request lines
longer than --max-request-bytes are answered with code 413 and closed;
connections idle past --idle-timeout-ms are reaped with code 408.
Updates are journaled to <model>.update.journal and recovered at
startup.
SIGHUP hot-reloads models; SIGTERM drains gracefully (stops accepting,
answers everything already read, prints a final stats line, exits 0).
)";

int Run(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (!flags.Has("models")) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  return RunServeCommand(flags);
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) { return ocular::Run(argc, argv); }
