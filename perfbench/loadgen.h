// The benchmark's load generator: open-loop, closed-loop, and ping-pong
// phases over loopback TCP connections, all driven from the calling
// thread, with every reply checked as it arrives.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Request line (newline-terminated) for sequence number `seq`.
using LineFn = std::function<const std::string&(uint64_t seq)>;
/// True when `reply` (newline stripped) is the right answer to `seq`.
/// Called only for replies that carry "ok":true.
using CheckFn = std::function<bool(uint64_t seq, const std::string& reply)>;

/// Counts and samples of one measured phase.
struct PhaseResult {
  std::string name;
  uint64_t sent = 0;
  uint64_t ok = 0;      ///< "ok":true and checked right
  uint64_t failed = 0;  ///< error reply, lost reply, or over the deadline
  uint64_t wrong = 0;   ///< "ok":true but not the oracle's bytes
  double start_us = 0.0;          ///< NowUs() when the phase began
  double seconds = 0.0;           ///< wall time of the phase
  std::vector<double> latency_us; ///< one per ok reply
  std::vector<double> done_us;    ///< NowUs() at each ok reply
  std::vector<double> late_us;    ///< open loop: send time minus due time
  uint64_t reply_bytes = 0;       ///< sum over ok replies
  bool backlog_grew = false;      ///< open loop fell behind its schedule

  uint64_t bad() const { return failed + wrong; }
};

/// A request older than this is counted failed: it missed every latency
/// limit worth having, and a generator that lets requests age this far
/// is not measuring the server.
constexpr double kDeadlineUs = 1e6;

/// Scores one reply to request `seq`, due at `due_us` and received at
/// `now_us`, into `r` the way every phase scores its replies: an error
/// reply or one past kDeadlineUs is failed, one `check` rejects is wrong.
/// Returns whether it counted as ok.
bool ScoreReply(PhaseResult* r, const CheckFn& check, uint64_t seq,
                double due_us, const std::string& reply, double now_us);

/// Fixed-rate open loop over `conns` connections (requests round-robin):
/// request k is due at start + k / rate and its latency runs from the due
/// time, so a server stall also charges the requests queued behind it.
/// Sending stops after `seconds`; replies are then drained for up to
/// kDeadlineUs. When the requests still unanswered at the end of sending
/// exceed a quarter second of traffic the backlog grew: the phase is
/// marked and every one of those requests counts as failed.
/// `on_send` (optional) runs just before each request is written.
PhaseResult OpenLoop(uint16_t port, int conns, double rate, double seconds,
                     const LineFn& line, const CheckFn& check,
                     Tracer* tracer = nullptr,
                     const std::function<void(uint64_t)>& on_send = {});

/// Closed-loop saturation: `conns` connections each keep `depth` requests
/// in flight for `seconds`.
PhaseResult ClosedLoop(uint16_t port, int conns, int depth, double seconds,
                       const LineFn& line, const CheckFn& check);

/// One connection at depth 1: `count` requests, each sent after the
/// previous reply; latency from send to reply.
PhaseResult PingPong(uint16_t port, uint64_t count, const LineFn& line,
                     const CheckFn& check, Tracer* tracer = nullptr,
                     const char* span_name = "tcp.pingpong");

/// One persistent connection that sends a line and waits for its reply.
class LineConn {
 public:
  explicit LineConn(uint16_t port);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Sends `line` and returns the reply line (empty on failure, after
  /// which the connection is closed and every later call fails).
  std::string RoundTrip(const std::string& line);

 private:
  int fd_;
  std::string buffer_;  ///< bytes read past the last reply
};

/// Sends one line on a fresh connection and returns the reply line
/// (empty on failure).
std::string RoundTrip(uint16_t port, const std::string& line);

/// True once a connection to `port` succeeds, polling for `timeout_s`.
bool WaitForPort(uint16_t port, double timeout_s);

/// True when `reply` starts with {"ok":true.
bool ReplyOk(const std::string& reply);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
