#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <thread>

#include "host.h"
#include "serving/net_util.h"

namespace perfbench {
namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  return ocular::net::SendAll(fd, data.data(), data.size());
}

/// A request written and not yet answered.
struct Pending {
  uint64_t seq = 0;
  double due_us = 0.0;  ///< latency origin
};

/// One client connection with its unanswered requests in send order.
struct Conn {
  int fd = -1;
  std::string inbuf;
  std::deque<Pending> pending;
  bool broken = false;
};

/// Reads what is available on `c` without blocking and hands every
/// complete reply line, with its request, to `on_reply`. Returns false
/// when the connection failed or closed.
template <typename OnReply>
bool DrainReplies(Conn* c, OnReply&& on_reply) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return false;
    c->inbuf.append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  const double now = NowUs();
  size_t start = 0;
  for (size_t nl; (nl = c->inbuf.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (c->pending.empty()) return false;  // a reply nobody asked for
    const Pending p = c->pending.front();
    c->pending.pop_front();
    on_reply(p, c->inbuf.substr(start, nl - start), now);
  }
  c->inbuf.erase(0, start);
  return true;
}

std::vector<Conn> OpenConns(uint16_t port, int n) {
  std::vector<Conn> conns(static_cast<size_t>(n));
  for (Conn& c : conns) {
    c.fd = Connect(port);
    c.broken = c.fd < 0;
  }
  return conns;
}

void CloseConns(std::vector<Conn>* conns, PhaseResult* r) {
  for (Conn& c : *conns) {
    r->failed += c.pending.size();  // never answered
    if (c.fd >= 0) ::close(c.fd);
  }
}

/// Waits until a connection is readable or `timeout_us` passes.
void WaitReadable(std::vector<Conn>* conns, std::vector<pollfd>* fds,
                  double timeout_us) {
  fds->clear();
  for (const Conn& c : *conns) {
    fds->push_back({c.broken ? -1 : c.fd, POLLIN, 0});
  }
  if (timeout_us < 0) timeout_us = 0;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_us / 1e6);
  ts.tv_nsec = static_cast<long>(std::fmod(timeout_us, 1e6) * 1e3);
  ::ppoll(fds->data(), fds->size(), &ts, nullptr);
}

}  // namespace

bool ScoreReply(PhaseResult* r, const CheckFn& check, uint64_t seq,
                double due_us, const std::string& reply, double now_us) {
  const double latency = now_us - due_us;
  if (!ReplyOk(reply) || latency > kDeadlineUs) {
    ++r->failed;
    return false;
  }
  if (!check(seq, reply)) {
    ++r->wrong;
    return false;
  }
  ++r->ok;
  r->reply_bytes += reply.size();
  r->latency_us.push_back(latency);
  r->done_us.push_back(now_us);
  return true;
}

bool ReplyOk(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

PhaseResult OpenLoop(uint16_t port, int conns_n, double rate, double seconds,
                     const LineFn& line, const CheckFn& check, Tracer* tracer,
                     const std::function<void(uint64_t)>& on_send) {
  PhaseResult r;
  std::vector<Conn> conns = OpenConns(port, conns_n);
  std::vector<pollfd> fds;
  const uint64_t total = static_cast<uint64_t>(rate * seconds);
  const double period_us = 1e6 / rate;
  const double start = NowUs() + 1000.0;
  const double send_end = start + seconds * 1e6;
  uint64_t next = 0;
  uint64_t outstanding = 0;
  r.start_us = start;
  auto on_reply = [&](const Pending& p, const std::string& reply, double now) {
    --outstanding;
    if (r.backlog_grew) return;  // already counted failed
    ScoreReply(&r, check, p.seq, p.due_us, reply, now);
    if (tracer != nullptr) tracer->Record("tcp.request", p.due_us, now, 0, p.seq);
  };
  for (;;) {
    double now = NowUs();
    while (next < total && start + static_cast<double>(next) * period_us <= now) {
      const double due = start + static_cast<double>(next) * period_us;
      Conn& c = conns[next % conns.size()];
      if (on_send) on_send(next);
      r.late_us.push_back(NowUs() - due);
      ++r.sent;
      if (c.broken || !SendAll(c.fd, line(next))) {
        c.broken = true;
        ++r.failed;
      } else {
        c.pending.push_back({next, due});
        ++outstanding;
      }
      ++next;
      now = NowUs();
    }
    if (next == total && r.seconds == 0.0) {
      // Sending is over: whatever is still unanswered is the backlog.
      r.seconds = (now - start) / 1e6;
      r.backlog_grew = static_cast<double>(outstanding) > 0.25 * rate;
      if (r.backlog_grew) r.failed += outstanding;
    }
    if (next == total && (outstanding == 0 || now > send_end + kDeadlineUs)) {
      if (r.backlog_grew) {
        for (Conn& c : conns) c.pending.clear();  // counted above
      }
      break;
    }
    const double wait = next < total
                            ? start + static_cast<double>(next) * period_us - now
                            : send_end + kDeadlineUs - now;
    WaitReadable(&conns, &fds, wait);
    for (size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (!DrainReplies(&conns[i], on_reply)) conns[i].broken = true;
    }
  }
  CloseConns(&conns, &r);
  return r;
}

PhaseResult ClosedLoop(uint16_t port, int conns_n, int depth, double seconds,
                       const LineFn& line, const CheckFn& check) {
  PhaseResult r;
  std::vector<Conn> conns = OpenConns(port, conns_n);
  std::vector<pollfd> fds;
  uint64_t next = 0;
  auto send_one = [&](Conn* c) {
    const double now = NowUs();
    ++r.sent;
    if (c->broken || !SendAll(c->fd, line(next))) {
      c->broken = true;
      ++r.failed;
    } else {
      c->pending.push_back({next, now});
    }
    ++next;
  };
  const double start = NowUs();
  const double end = start + seconds * 1e6;
  r.start_us = start;
  for (Conn& c : conns) {
    for (int d = 0; d < depth; ++d) send_one(&c);
  }
  bool sending = true;
  for (;;) {
    const double now = NowUs();
    if (sending && now >= end) {
      sending = false;
      r.seconds = (now - start) / 1e6;
    }
    size_t outstanding = 0;
    for (const Conn& c : conns) outstanding += c.broken ? 0 : c.pending.size();
    if (!sending && (outstanding == 0 || now > end + kDeadlineUs)) break;
    WaitReadable(&conns, &fds, sending ? end - now : end + kDeadlineUs - now);
    for (size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns[i];
      size_t answered = 0;
      const bool alive = DrainReplies(
          &c, [&](const Pending& p, const std::string& reply, double at) {
            ++answered;
            // Replies that land after the window closed are checked but
            // not counted toward the rate.
            if (at <= end) {
              ScoreReply(&r, check, p.seq, p.due_us, reply, at);
            } else if (!ReplyOk(reply)) {
              ++r.failed;
            } else if (!check(p.seq, reply)) {
              ++r.wrong;
            }
          });
      if (!alive) c.broken = true;
      if (sending) {
        for (size_t k = 0; k < answered; ++k) send_one(&c);
      }
    }
  }
  CloseConns(&conns, &r);
  return r;
}

PhaseResult PingPong(uint16_t port, uint64_t count, const LineFn& line,
                     const CheckFn& check, Tracer* tracer,
                     const char* span_name) {
  PhaseResult r;
  std::vector<Conn> conns = OpenConns(port, 1);
  Conn& c = conns[0];
  std::vector<pollfd> fds;
  const double start = NowUs();
  for (uint64_t seq = 0; seq < count && !c.broken; ++seq) {
    const double sent = NowUs();
    ++r.sent;
    if (!SendAll(c.fd, line(seq))) {
      c.broken = true;
      ++r.failed;
      break;
    }
    c.pending.push_back({seq, sent});
    const double deadline = sent + kDeadlineUs;
    while (!c.pending.empty() && !c.broken && NowUs() < deadline) {
      WaitReadable(&conns, &fds, deadline - NowUs());
      if (fds[0].revents == 0) continue;
      if (!DrainReplies(&c, [&](const Pending& p, const std::string& reply,
                                double now) {
            ScoreReply(&r, check, p.seq, p.due_us, reply, now);
            if (tracer != nullptr) {
              tracer->Record(span_name, p.due_us, now, 0, p.seq);
            }
          })) {
        c.broken = true;
      }
    }
  }
  r.seconds = (NowUs() - start) / 1e6;
  CloseConns(&conns, &r);
  return r;
}

LineConn::LineConn(uint16_t port) : fd_(Connect(port)) {}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineConn::RoundTrip(const std::string& line) {
  std::string reply;
  if (fd_ < 0) return reply;
  if (!SendAll(fd_, line) ||
      ocular::net::ReadLineBounded(fd_, &buffer_, &reply) !=
          ocular::net::ReadEvent::kLine) {
    reply.clear();
    ::close(fd_);
    fd_ = -1;  // the stream is out of step; later calls fail
  }
  return reply;
}

std::string RoundTrip(uint16_t port, const std::string& line) {
  return LineConn(port).RoundTrip(line);
}

bool WaitForPort(uint16_t port, double timeout_s) {
  const double deadline = NowUs() + timeout_s * 1e6;
  while (NowUs() < deadline) {
    const int fd = Connect(port);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace perfbench
