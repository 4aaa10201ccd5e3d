#ifndef OCULAR_SERVING_LINE_SERVER_H_
#define OCULAR_SERVING_LINE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace ocular {

class JsonWriter;

/// \file
/// \brief The one connection core of the serving stack: a loopback TCP
/// transport for newline-delimited request/response protocols. The
/// daemon (serving/daemon.h) and the fleet front tier (serving/fleet.h)
/// are two LineHandlers on it; everything connection-level — accept,
/// admission, framing, pipelining, backpressure, deadlines, drain — lives
/// here, once.

/// \brief Connection limits of a LineServer. RequestServer::Options and
/// FleetServer::Options both derive from it, so the two servers declare
/// (and document) each limit exactly once.
struct LineServerOptions {
  /// Depth of the IO-thread → worker dispatch queue (parsed request
  /// batches awaiting a worker). A full queue is backpressure, not
  /// shedding: the IO thread holds the connection's parsed lines and
  /// re-dispatches after the next completion.
  size_t accept_queue = 128;
  /// Open connections admitted before new accepts are shed with a
  /// 503-style reply (0 = unlimited — bounded only by the process fd
  /// limit, which the EMFILE parachute handles).
  size_t max_connections = 0;
  /// Slow-consumer policy: a connection whose outbound reply buffer
  /// exceeds this many bytes (because the peer never drains its socket)
  /// is dropped and counted in connections_slow_closed.
  size_t max_outbound_bytes = 8 << 20;
  /// Longest request line a connection may send before it is answered
  /// with a 413-style reply and closed. Generous for real requests (a
  /// full-catalog exclude list is well under it); its real job is
  /// keeping a newline-free byte stream from growing a buffer until the
  /// process OOMs.
  size_t max_request_bytes = 1 << 20;
  /// IO deadline in milliseconds, enforced by the epoll loop's sweep: a
  /// connection with a nonempty outbound buffer that makes no write
  /// progress for this long is dropped (slow consumer), and the sweep
  /// itself ticks at this granularity (so idle expiry, shutdown drain,
  /// and deadline checks are noticed within one tick). 0 disables every
  /// deadline — idle reaping included — and the loop parks until
  /// readiness.
  uint32_t io_timeout_ms = 1000;
  /// Close a connection with a 408-style reply after this long without
  /// one complete request line (0 = never; also disabled when
  /// io_timeout_ms is 0, which turns the sweep off). Measured against
  /// completed non-empty request lines, not received bytes, so a
  /// slow-loris peer dribbling one byte per second is reaped on schedule
  /// despite staying technically active.
  uint32_t idle_timeout_ms = 30000;
  /// Backoff hint carried in 503 shed replies ("retry_after_ms"):
  /// clients honoring it (serving/loadgen.cc does) retry after this base
  /// delay with capped exponential backoff instead of hammering a server
  /// that just refused them.
  uint32_t retry_after_ms = 50;
};

/// \brief Connection-level counters of a LineServer, as both servers'
/// `stats` verbs report them (DaemonStatsSnapshot and FleetStatsSnapshot
/// derive from it; WriteConnectionStats renders it).
struct ConnectionStats {
  /// Connections refused at admission with a 503-style reply: the
  /// max_connections cap was reached or accept() hit fd exhaustion
  /// (EMFILE/ENFILE). Load shedding, never silent drops.
  uint64_t connections_shed = 0;
  /// Connections closed with a 408-style reply because no complete
  /// request arrived within idle_timeout_ms (idle peers and slow-loris
  /// byte-dribblers alike).
  uint64_t connections_timed_out = 0;
  /// Connections currently open (a gauge, not a counter: accepted minus
  /// closed).
  uint64_t connections_open = 0;
  /// Subset of connections_shed refused because max_connections open
  /// connections were already admitted.
  uint64_t connections_capped = 0;
  /// Connections dropped by the slow-consumer policy: the outbound
  /// buffer exceeded max_outbound_bytes, or a nonempty outbound buffer
  /// made no write progress for io_timeout_ms.
  uint64_t connections_slow_closed = 0;
  /// accept() failures with EMFILE/ENFILE, each handled via the
  /// reserve-fd parachute (victim accepted, shed with retry_after_ms,
  /// reserve reopened) instead of spinning or dying.
  uint64_t accept_emfile = 0;
  /// High-water mark of any single connection's outbound buffer, bytes —
  /// how close the slowest consumer came to max_outbound_bytes.
  uint64_t peak_outbound_bytes = 0;
};

/// \brief Writes the ConnectionStats keys (connections_shed,
/// connections_timed_out, connections_open, connections_capped,
/// connections_slow_closed, accept_emfile, peak_outbound_bytes) into an
/// open JSON object — the one rendering both `stats` replies share.
void WriteConnectionStats(const ConnectionStats& stats, JsonWriter* w);

/// \brief `{"ok":false,"error":message}` plus `"code"` and
/// `"retry_after_ms"` when nonzero (no trailing newline): the shape of
/// every failed request, and with a code of every connection-level and
/// front-tier refusal (503 shed, 408 idle, 413 oversize, 501 refused
/// verb).
std::string RenderError(const std::string& message, uint32_t code = 0,
                        uint64_t retry_after_ms = 0);

/// \brief The `quit` verb's reply, `{"ok":true,"bye":true}` (no trailing
/// newline), shared by the daemon and the fleet.
std::string RenderQuitReply();

/// \brief What a protocol plugs into a LineServer. Called from the
/// transport's threads: ServeLine and OnWorkerIdle from worker `worker`
/// only (so per-worker state indexed by it is shared-nothing),
/// ConnectionError from the IO thread, OnTick from both.
class LineHandler {
 public:
  /// \brief Answers one request line (no trailing newline in or out) on
  /// worker `worker` in [0, num_workers). Setting `*quit` closes the
  /// connection once this reply is flushed; lines pipelined after it are
  /// dropped.
  virtual std::string ServeLine(size_t worker, const std::string& line,
                                bool* quit) = 0;
  /// \brief Worker `worker` found the dispatch queue empty and is about
  /// to park (a place to drop state that must not outlive a busy spell).
  virtual void OnWorkerIdle(size_t /*worker*/) {}
  /// \brief Runs once per IO-loop iteration and before each batch a
  /// worker serves: a place to apply latched signals between requests.
  virtual void OnTick() {}
  /// \brief The 408/413 reply a connection gets before it is closed
  /// (RenderError by default; the daemon also counts it as an
  /// error). Called on the IO thread.
  virtual std::string ConnectionError(const std::string& message,
                                      uint32_t code) {
    return RenderError(message, code);
  }

 protected:
  ~LineHandler() = default;
};

/// \brief The event-driven connection core the daemon and the fleet
/// front tier both run on.
///
/// One epoll IO thread owns every nonblocking socket and all
/// per-connection state; a fixed pool of worker threads owns only
/// compute. Data flow:
///
///   readiness → read() until EAGAIN → extract complete lines
///     → dispatch ONE batch per connection to the work queue
///   worker: LineHandler::ServeLine per line → completion chunks
///     (≤256 KiB) → eventfd wakeup → IO thread appends to the conn's
///     outbound → send() until EAGAIN, EPOLLOUT for the rest
///
/// A connection has at most one batch in flight, so pipelined replies
/// come back in request order with no sequencing. Robustness is
/// structural: the admission cap and the EMFILE reserve-fd parachute shed
/// with 503 before a connection exists; a full work queue is
/// backpressure (lines wait on the connection, re-dispatched after
/// completions); oversized lines get 413; idle/slowloris peers get 408
/// from the deadline sweep; slow consumers (outbound cap or
/// write-progress deadline) are dropped. An idle keep-alive connection
/// costs one fd and a few hundred bytes, never a worker.
class LineServer {
 public:
  explicit LineServer(const LineServerOptions& options);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// \brief Listens on 127.0.0.1:`port` (0 = kernel-assigned; see
  /// bound_port()) with backlog SOMAXCONN and serves connections with
  /// `num_workers` (≥ 1) worker threads calling `handler`. Returns on a
  /// socket setup error, after Stop() or a latched shutdown request once
  /// the drain finishes, or — with `max_accepts` > 0 — after that many
  /// connections have been accepted AND every open connection has
  /// finished (0 = serve until stopped). Not reentrant.
  Status Run(uint16_t port, size_t num_workers, LineHandler* handler,
             uint64_t max_accepts = 0);

  /// \brief The port Run is listening on, or 0 when it is not. Published
  /// after listen() succeeds, so a client that reads a nonzero value can
  /// connect immediately.
  uint16_t bound_port() const {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// \brief Asks Run to drain and return: it stops accepting, answers
  /// the complete requests already read, flushes, and closes. Callable
  /// from any thread; wakes the IO loop at once. Run clears it on entry.
  void Stop();

  /// \brief Current connection counters (lock-free; any thread).
  ConnectionStats Stats() const;

  /// \brief Installs the process-wide SIGTERM/SIGINT handler that latches
  /// a graceful drain (idempotent; the handler only sets a flag). Every
  /// running LineServer notices within one io_timeout_ms tick and drains
  /// as on Stop(); the server whose owner consumes the latch reports it.
  static void InstallShutdownSignalHandler();
  /// \brief Latches a drain request programmatically — what the SIGTERM
  /// handler does, callable from tests.
  static void RequestShutdown();
  /// \brief True while a drain request is latched.
  static bool ShutdownRequested();
  /// \brief Consumes a latched drain request, returning whether one was
  /// latched, so a later server in the same process can serve again.
  static bool ConsumeShutdownRequest();

 private:
  struct Core;

  const LineServerOptions options_;
  /// eventfd the workers and Stop() write to wake the IO thread; lives
  /// as long as the server so Stop() can never race its close.
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<uint16_t> bound_port_{0};

  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> open_conns_{0};
  std::atomic<uint64_t> capped_{0};
  std::atomic<uint64_t> slow_closed_{0};
  std::atomic<uint64_t> accept_emfile_{0};
  std::atomic<uint64_t> peak_outbound_{0};
};

}  // namespace ocular

#endif  // OCULAR_SERVING_LINE_SERVER_H_
