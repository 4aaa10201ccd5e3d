// perfbench — end-to-end and per-layer serving benchmark.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --served=PATH --fleet=PATH --work=DIR
//
// Generates the workload's data and models from --seed, starts the real
// ocular_served, drives it from this one process, checks every reply
// against the offline oracle, and prints one JSON result as the last line
// of stdout: the end-to-end metrics with --trace=0, the per-layer metrics
// of a traced run with --trace=1. Earlier stdout lines carry the per-phase
// counts and the machine-speed probe. See METRICS.md for what each metric
// means and which end-to-end figure each layer should move.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "host.h"
#include "layers.h"
#include "loadgen.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Full set-ups per run; setup_s is their median, and each set-up's
/// servers are measured for an equal share of --seconds.
constexpr int kSetupReps = 5;
/// Ping-pong requests that warm each started server (part of set-up).
constexpr uint64_t kWarmupRequests = 1000;
/// Daemon worker threads. With the daemon's IO thread and the generator
/// thread this stays within the 4-CPU box.
constexpr int kDaemonWorkers = 2;
/// Connections the generator holds at once (its limit is nproc): the
/// open loop takes all of them, or all but the update connection when the
/// update stream runs beside it. Closed loop: connections x depth.
constexpr int kConns = 4;
constexpr int kCapacityConns = 2;
constexpr int kCapacityDepth = 2;
/// Stand-alone updates after the reads of a read workload: a fixed count,
/// so every run times the same updates of its catalogs.
constexpr size_t kStandaloneUpdates = 3;
/// Users re-read after the updates, checked against the final artifact.
constexpr uint32_t kFinalCheckUsers = 200;
/// Phases are scored window by window and a metric is the median over
/// the windows: a box shared with other tenants has slow spells, and a
/// spell that covers less than half of a phase then leaves no mark.
constexpr double kWindowS = 0.5;
/// Updates timed in-process by the traced run.
constexpr size_t kTracedUpdates = 5;
/// Requests per ping-pong and in-process layer pass of the traced run.
constexpr uint64_t kTracedRequests = 2000;
/// Ping-pong blocks alternating between the direct daemon and the fleet.
constexpr uint64_t kPingPongBlocks = 10;
/// Share of --seconds the traced run spends in the capacity phase.
constexpr double kCapacityShare = 0.25;
/// Open-loop blocks of each kind (without, with spans) in the traced run.
constexpr int kOverheadBlocks = 3;
/// Items of a stored user's row timed as a fold-in history.
constexpr size_t kDerivedHistory = 40;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string served, fleet, work;
};

/// Running servers: a daemon, or a fleet with its replicas.
struct Servers {
  std::unique_ptr<Process> proc;
  uint16_t port = 0;

  std::vector<pid_t> Pids() const {
    std::vector<pid_t> pids = ChildrenOf(proc->pid());
    pids.push_back(proc->pid());
    return pids;
  }
};

/// Everything a run measures against: inputs, oracle, request lines.
struct Bench {
  Args args;
  Inputs in;
  std::vector<std::string> lines;     ///< one per read key
  std::vector<std::string> expected;  ///< oracle reply per read key
  std::vector<uint32_t> order;        ///< read key of request seq
  std::vector<std::string> user_lines;  ///< stored-user line per user
  std::vector<UpdateOp> updates;

  uint32_t Key(uint64_t seq) const { return order[seq % order.size()]; }
  LineFn Line() const {
    return [this](uint64_t seq) -> const std::string& { return lines[Key(seq)]; };
  }
  CheckFn Check() const {
    return [this](uint64_t seq, const std::string& reply) {
      return reply == expected[Key(seq)];
    };
  }
};

/// Totals over every phase of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void Add(const PhaseResult& r) {
    attempted += r.sent;
    failed += r.failed;
    wrong += r.wrong;
    std::printf(
        "{\"phase\":\"%s\",\"sent\":%llu,\"ok\":%llu,\"failed\":%llu,"
        "\"wrong\":%llu,\"seconds\":%.3f,\"p50_us\":%.1f,\"late_p50_us\":%.1f,"
        "\"late_p99_us\":%.1f,\"backlog_grew\":%s}\n",
        r.name.c_str(), static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.wrong), r.seconds,
        Percentile(r.latency_us, 0.5), Percentile(r.late_us, 0.5),
        Percentile(r.late_us, 0.99), r.backlog_grew ? "true" : "false");
  }
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  StopAllProcesses();
  std::exit(1);
}

template <typename T>
T OrDie(ocular::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

Args ParseArgs(int argc, char** argv) {
  const ocular::Flags flags = ocular::Flags::Parse(argc, argv);
  Args a;
  a.spec = FindWorkload(flags.GetString("workload"));
  if (a.spec == nullptr) Die("unknown --workload");
  a.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  a.seconds = static_cast<double>(flags.GetInt("seconds", 10));
  a.trace = flags.GetInt("trace", 0) != 0;
  a.served = flags.GetString("served");
  a.fleet = flags.GetString("fleet");
  a.work = flags.GetString("work");
  if (a.served.empty() || a.fleet.empty() || a.work.empty() || a.seconds <= 0) {
    Die("--served, --fleet, --work and a positive --seconds are required");
  }
  return a;
}

/// Starts the daemon, or the fleet over two replicas, on fresh ports.
/// The fleet serves one client connection per front worker and forwards
/// it over one replica connection at a time, so with one front worker
/// and one worker per replica only one thread of the chain is busy at a
/// time under the ping-pong it serves.
std::optional<Servers> StartServers(const Bench& b, bool fleet,
                                    const std::string& log) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    Servers s;
    s.proc = std::make_unique<Process>();
    const uint16_t port = FreePort();
    if (port == 0 || port > 65000) continue;
    const std::string models = "--models=default=" + b.in.model_path;
    const std::string datasets = "--datasets=default=" + b.in.data_path;
    std::vector<std::string> argv;
    s.port = port;
    if (fleet) {
      argv = {b.args.fleet, "--port=" + std::to_string(port), "--spawn=2",
              "--served=" + b.args.served, models, datasets,
              "--base-port=" + std::to_string(port + 1), "--replica-workers=1",
              "--workers=1"};
    } else {
      argv = {b.args.served, models, datasets, "--port=" + std::to_string(port),
              "--workers=" + std::to_string(kDaemonWorkers)};
    }
    if (!s.proc->Start(argv, log)) continue;
    if (WaitForPort(s.port, 30) && s.proc->Alive()) {
      return s;
    }
    s.proc->Stop();
  }
  return std::nullopt;
}

/// Sends request 0 until a verified reply comes back (a fleet answers 503
/// until its replicas pass a health probe), then warms caches with a
/// ping-pong pass.
bool WarmUp(const Bench& b, uint16_t port, Tally* tally) {
  const double deadline = NowUs() + 30e6;
  bool first = false;
  std::string reply;
  while (!first && NowUs() < deadline) {
    reply = RoundTrip(port, b.lines[b.Key(0)]);
    first = reply == b.expected[b.Key(0)];
    if (!first) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!first) {
    std::fprintf(stderr, "first reply:\n%s\nexpected:\n%s\n", reply.c_str(),
                 b.expected[b.Key(0)].c_str());
    return false;
  }
  PhaseResult w = PingPong(port, kWarmupRequests, b.Line(), b.Check());
  w.name = "warmup";
  tally->Add(w);
  return w.bad() == 0;
}

/// One full set-up: data, training, artifact, oracle, daemon, warm-up.
/// Set-up `rep` of a run generates its own catalog and traffic from
/// (--seed, rep): per-request work differs between catalogs (an update's
/// retrain by up to a third), and a run that pools five catalogs repeats
/// from seed to seed where one catalog per run would not.
/// Returns the wall time, in seconds, of what a deployment would do:
/// data generation, training, artifact write, daemon start and warm-up.
/// The benchmark's own work (the oracle, the request order, the update
/// stream, clearing the work directory) is left out.
double SetUp(Bench* b, Servers* servers, Tally* tally, int rep) {
  const WorkloadSpec& spec = *b->args.spec;
  // A fresh directory: an earlier instance's journal would otherwise be
  // replayed by the next daemon. Server logs are kept.
  for (const auto& entry : fs::directory_iterator(b->args.work)) {
    if (entry.path().filename() != "server.log") fs::remove_all(entry.path());
  }
  const uint64_t seed = b->args.seed * kSetupReps + static_cast<uint64_t>(rep);
  const double inputs_start = NowUs();
  b->in = OrDie(BuildInputs(seed, b->args.work), "inputs");
  const double inputs_us = NowUs() - inputs_start;
  b->user_lines.clear();
  for (uint32_t u = 0; u < b->in.train->num_rows(); ++u) {
    b->user_lines.push_back(UserLine(u, 50));
  }
  if (spec.history_reads) {
    b->expected = OrDie(HistoryOracle(b->in.model_path, *b->in.train,
                                      b->in.histories, spec.m),
                        "history oracle");
    b->lines.clear();
    for (const auto& h : b->in.histories) b->lines.push_back(HistoryLine(h, spec.m));
  } else {
    b->expected = OrDie(StoredUserOracle(b->in.model_path, b->in.train, 50),
                        "stored-user oracle");
    b->lines = b->user_lines;
  }
  // Every read key equally often, in a seeded order: seeds then differ in
  // their data, not in how often each request shows up.
  ocular::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  b->order.clear();
  while (b->order.size() < (1u << 16)) {
    std::vector<uint32_t> pass(b->lines.size());
    for (uint32_t k = 0; k < pass.size(); ++k) pass[k] = k;
    rng.Shuffle(&pass);
    b->order.insert(b->order.end(), pass.begin(), pass.end());
  }
  b->updates = MakeUpdates(seed, b->in.train->num_rows(),
                           b->in.train->num_cols(), 256);

  const double servers_start = NowUs();
  auto started = StartServers(*b, false, b->args.work + "/server.log");
  if (!started) Die("daemon did not start (see server.log)");
  *servers = std::move(*started);
  if (!WarmUp(*b, servers->port, tally)) Die("warm-up replies were wrong");
  return (inputs_us + NowUs() - servers_start) / 1e6;
}

/// `reply` with its last digit changed.
std::string Mutated(std::string reply) {
  const size_t digit = reply.find_last_of("0123456789");
  if (digit != std::string::npos) {
    reply[digit] = reply[digit] == '9' ? '8' : static_cast<char>(reply[digit] + 1);
  }
  return reply;
}

/// Negative self-check of the reply scoring every read phase uses: the
/// oracle's reply must count ok and a mutated copy wrong.
bool ScoringFlagsMutation(const Bench& b) {
  const std::string& good = b.expected[b.Key(0)];
  PhaseResult r;
  const double now = NowUs();
  ScoreReply(&r, b.Check(), 0, now, good, now);
  ScoreReply(&r, b.Check(), 0, now, Mutated(good), now);
  return r.ok == 1 && r.wrong == 1;
}

/// Resident-set readings per CPU reading. The resident set rises and
/// falls within one retrain (about 0.4 s), so it is read every 50 ms: a
/// reading every 0.5 s would alias with the retrain cycle.
constexpr int kRssPerWindow = 10;

/// One reading of the servers, summed over their processes.
struct ServerSample {
  double at_us;
  double value;
};

/// Reads the servers' CPU time every kWindowS seconds, so a phase's CPU
/// per reply can be taken window by window, and their resident set
/// kRssPerWindow times as often, on its own thread.
class ServerSampler {
 public:
  explicit ServerSampler(std::vector<pid_t> pids)
      : pids_(std::move(pids)), thread_([this] { Run(); }) {}
  ~ServerSampler() { Stop(); }
  ServerSampler(const ServerSampler&) = delete;
  ServerSampler& operator=(const ServerSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// CPU seconds and resident MiB; read only after Stop().
  const std::vector<ServerSample>& cpu() const { return cpu_; }
  const std::vector<ServerSample>& rss() const { return rss_; }

 private:
  void Run() {
    const double tick_us = kWindowS * 1e6 / kRssPerWindow;
    double next = NowUs();
    for (int tick = 0; !stop_.load(); ++tick) {
      const double now = NowUs();
      ServerSample rss{now, 0.0};
      for (pid_t p : pids_) rss.value += ProcessMemoryMb(p, "VmRSS");
      rss_.push_back(rss);
      if (tick % kRssPerWindow == 0) {
        ServerSample cpu{now, 0.0};
        for (pid_t p : pids_) cpu.value += ProcessCpuSeconds(p);
        cpu_.push_back(cpu);
      }
      next += tick_us;
      for (double t = NowUs(); !stop_.load() && t < next; t = NowUs()) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(std::min(next - t, 20e3))));
      }
    }
  }

  std::vector<pid_t> pids_;
  std::vector<ServerSample> cpu_, rss_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

/// Replies of `r` that arrived in [from_us, to_us).
size_t RepliesBetween(const PhaseResult& r, double from_us, double to_us) {
  return static_cast<size_t>(std::count_if(
      r.done_us.begin(), r.done_us.end(),
      [&](double t) { return t >= from_us && t < to_us; }));
}

/// Median latency of each whole kWindowS window of `r`.
std::vector<double> WindowP50s(const PhaseResult& r) {
  std::vector<double> p50s;
  for (double from = r.start_us; from + kWindowS * 1e6 <= r.start_us + r.seconds * 1e6;
       from += kWindowS * 1e6) {
    std::vector<double> in;
    for (size_t k = 0; k < r.done_us.size(); ++k) {
      if (r.done_us[k] >= from && r.done_us[k] < from + kWindowS * 1e6) {
        in.push_back(r.latency_us[k]);
      }
    }
    if (!in.empty()) p50s.push_back(Median(std::move(in)));
  }
  return p50s;
}

/// Verified replies per second of each whole kWindowS window of `r`.
std::vector<double> WindowRates(const PhaseResult& r) {
  std::vector<double> rates;
  for (double from = r.start_us; from + kWindowS * 1e6 <= r.start_us + r.seconds * 1e6;
       from += kWindowS * 1e6) {
    rates.push_back(static_cast<double>(RepliesBetween(r, from, from + kWindowS * 1e6)) /
                    kWindowS);
  }
  return rates;
}

/// Server CPU microseconds per reply of each sampler window inside `r`.
std::vector<double> WindowCpuPerReply(const PhaseResult& r,
                                      const ServerSampler& sampler) {
  std::vector<double> per_reply;
  const auto& s = sampler.cpu();
  for (size_t k = 1; k < s.size(); ++k) {
    if (s[k - 1].at_us < r.start_us) continue;
    const size_t replies = RepliesBetween(r, s[k - 1].at_us, s[k].at_us);
    if (replies > 0) {
      per_reply.push_back((s[k].value - s[k - 1].value) * 1e6 /
                          static_cast<double>(replies));
    }
  }
  return per_reply;
}

/// Summed resident set of the servers at each sample inside `r`.
std::vector<double> RssDuring(const PhaseResult& r, const ServerSampler& sampler) {
  std::vector<double> rss;
  for (const ServerSample& s : sampler.rss()) {
    if (s.at_us >= r.start_us) rss.push_back(s.value);
  }
  return rss;
}

double PeakRssMb(const Servers& s) {
  double mb = 0.0;
  for (pid_t p : s.Pids()) mb += ProcessMemoryMb(p, "VmHWM");
  return mb;
}

/// Hard-links the artifact now published to gen-<gen>.oclr: the daemon
/// renames each update over the model file, so the link keeps that
/// generation for the oracle.
void LinkGeneration(const Bench& b, size_t gen) {
  std::error_code ec;
  fs::create_hard_link(b.in.model_path,
                       b.args.work + "/gen-" + std::to_string(gen) + ".oclr", ec);
  if (ec) Die("cannot link generation " + std::to_string(gen) + ": " + ec.message());
}

/// Closed-loop `update` verbs on one connection, one after another, while
/// `more(k)` says update k should go. Each ack's latency lands in
/// `ack_ms`; after each ack the published artifact is hard-linked to
/// gen-<n>.oclr so read replies can be checked against every generation.
PhaseResult RunUpdates(const Bench& b, uint16_t port,
                       const std::function<bool(size_t)>& more,
                       std::atomic<size_t>* acked, std::vector<double>* ack_ms) {
  PhaseResult r;
  r.name = "updates";
  LineConn conn(port);
  const double start = NowUs();
  for (size_t k = 0; k < b.updates.size() && more(k); ++k) {
    const double sent = NowUs();
    ++r.sent;
    const std::string reply = conn.RoundTrip(b.updates[k].line);
    if (!ReplyOk(reply)) {
      ++r.failed;
      break;  // later generations would not match the oracle's
    }
    ack_ms->push_back((NowUs() - sent) / 1e3);
    LinkGeneration(b, k + 1);
    ++r.ok;
    acked->store(k + 1);
  }
  r.seconds = (NowUs() - start) / 1e6;
  return r;
}

/// Oracle replies of every stored user at update generation `gen`.
std::vector<std::string> GenerationOracle(const Bench& b, size_t gen) {
  auto train = OrDie(TrainAfter(*b.in.train, b.updates, gen), "train");
  return OrDie(StoredUserOracle(b.args.work + "/gen-" + std::to_string(gen) +
                                    ".oclr",
                                train, 50),
               "generation oracle");
}

/// A read sent while updates were publishing, checked after the phase:
/// it must equal the oracle of one generation in [gen_lo, gen_hi].
struct Deferred {
  uint32_t user;
  size_t gen_lo, gen_hi;
  std::string reply;
};

/// Replies of `deferred` that equal no generation of `gens` (the oracle
/// of every published generation, by user) inside their window.
uint64_t CountUnmatched(const std::vector<Deferred>& deferred,
                        const std::vector<std::vector<std::string>>& gens) {
  uint64_t unmatched = 0;
  for (const Deferred& d : deferred) {
    bool match = false;
    for (size_t g = d.gen_lo; g <= std::min(d.gen_hi, gens.size() - 1) && !match;
         ++g) {
      match = d.reply == gens[g][d.user];
    }
    if (!match) ++unmatched;
  }
  return unmatched;
}

/// Negative self-check of the generation matcher: a deferred read holding
/// its generation's oracle reply must match and a mutated copy must not.
bool MatcherFlagsMutation(const Deferred& d,
                          const std::vector<std::vector<std::string>>& gens) {
  Deferred good = d;
  good.reply = gens[d.gen_lo][d.user];
  Deferred bad = good;
  bad.reply = Mutated(good.reply);
  return CountUnmatched({good}, gens) == 0 && CountUnmatched({bad}, gens) == 1;
}

/// After the updates: a fixed user sample read from `port` must match the
/// re-opened final artifact.
PhaseResult FinalCheck(const Bench& b, uint16_t port, size_t acked) {
  const std::vector<std::string> oracle = GenerationOracle(b, acked);
  const uint32_t users = static_cast<uint32_t>(oracle.size());
  PhaseResult r = PingPong(
      port, std::min(kFinalCheckUsers, users),
      [&](uint64_t seq) -> const std::string& {
        return b.user_lines[(seq * 7919) % users];
      },
      [&](uint64_t seq, const std::string& reply) {
        return reply == oracle[(seq * 7919) % users];
      });
  r.name = "final-check";
  return r;
}

void PrintHost(const std::vector<SpeedProbe>& probes, double steal) {
  std::printf(
      "{\"host\":{\"nproc\":%d,\"ref_loop_us_before\":%.1f,"
      "\"ref_loop_us_after\":%.1f,\"chase_ns_before\":%.2f,"
      "\"chase_ns_after\":%.2f,\"steal_pct\":%.3f}}\n",
      NumCpus(), probes.front().ref_loop_us, probes.back().ref_loop_us,
      probes.front().chase_ns, probes.back().chase_ns, steal);
}

/// Median of one field over the speed probes of a run.
double MedianProbe(const std::vector<SpeedProbe>& probes,
                   double SpeedProbe::*field) {
  std::vector<double> values;
  for (const SpeedProbe& p : probes) values.push_back(p.*field);
  return Median(std::move(values));
}

void PrintResult(bool correct, const Tally& t,
                 const std::vector<std::tuple<std::string, double, std::string>>&
                     metrics) {
  ocular::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.UInt(t.attempted);
  w.Key("failed");
  w.UInt(t.failed + t.wrong);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value, unit] : metrics) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Double(value);
    w.Key("unit");
    w.String(unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

/// The windows and samples one server instance's measured phases left.
struct Instance {
  std::vector<PhaseResult> phases;
  std::vector<double> p50s, cpu_per_reply, ack_ms;
  /// Read workloads: the peak resident set after the reads.
  /// update-under-read: the resident set read every 50 ms during the reads.
  std::vector<double> rss_mb;
  bool self_check = false;  ///< the reply check flagged a mutated reply
};

/// Measures one running server instance: the open loop for `open_s`
/// seconds, then (read workloads) kStandaloneUpdates updates, or
/// (update-under-read) the open loop with the update stream beside it;
/// then the final check.
Instance Measure(const Bench& b, const Servers& servers, double open_s) {
  const WorkloadSpec& spec = *b.args.spec;
  Instance out;

  std::atomic<bool> stop{false};
  std::atomic<size_t> acked{0};
  LinkGeneration(b, 0);

  // Reads during updates are checked after the phase, against every
  // generation that could have served them.
  std::vector<Deferred> deferred;
  std::vector<size_t> gen_at_send;
  CheckFn open_check = b.Check();
  std::function<void(uint64_t)> on_send;
  PhaseResult update_phase;
  std::thread updater;
  ServerSampler sampler(servers.Pids());
  if (spec.updates_during_reads) {
    gen_at_send.assign(static_cast<size_t>(spec.open_rate * open_s) + 1, 0);
    on_send = [&](uint64_t seq) { gen_at_send[seq] = acked.load(); };
    open_check = [&](uint64_t seq, const std::string& reply) {
      deferred.push_back({b.Key(seq), gen_at_send[seq], acked.load() + 1, reply});
      return true;
    };
    updater = std::thread([&] {
      update_phase = RunUpdates(
          b, servers.port,
          [&](size_t k) { return k == 0 || !stop.load(); }, &acked,
          &out.ack_ms);
    });
  }
  const int open_conns = spec.updates_during_reads ? kConns - 1 : kConns;
  PhaseResult open = OpenLoop(servers.port, open_conns, spec.open_rate, open_s,
                              b.Line(), open_check, nullptr, on_send);
  open.name = "open-loop";
  sampler.Stop();
  if (spec.updates_during_reads) {
    stop.store(true);
    updater.join();
    // Each generation's oracle is computed once; every deferred reply must
    // equal one generation inside its window.
    const size_t last = acked.load();
    std::vector<std::vector<std::string>> gens;
    for (size_t g = 0; g <= last; ++g) gens.push_back(GenerationOracle(b, g));
    const uint64_t unmatched = CountUnmatched(deferred, gens);
    open.ok -= unmatched;
    open.wrong += unmatched;
    out.self_check = !deferred.empty() && MatcherFlagsMutation(deferred.front(), gens);
  } else {
    out.self_check = ScoringFlagsMutation(b);
    // Read workloads: the memory of serving reads, before any retrain.
    out.rss_mb = {PeakRssMb(servers)};
    update_phase = RunUpdates(
        b, servers.port, [](size_t k) { return k < kStandaloneUpdates; },
        &acked, &out.ack_ms);
  }
  PhaseResult final_check = FinalCheck(b, servers.port, acked.load());
  if (spec.updates_during_reads) out.rss_mb = RssDuring(open, sampler);

  out.p50s = WindowP50s(open);
  out.cpu_per_reply = WindowCpuPerReply(open, sampler);
  out.phases = {std::move(open), std::move(update_phase), std::move(final_check)};
  return out;
}

/// The untraced run: end-to-end metrics. Each of the kSetupReps set-ups
/// is measured for its share of --seconds and the windows of all of them
/// are pooled, so one server instance (its threads' placement on the
/// box's CPUs) or one slow spell of the box weighs a fifth.
int RunEndToEnd(Bench* b) {
  Tally tally;
  std::vector<double> setups, p50s, cpu_per_reply, ack_ms, rss;
  bool self_checks = true;
  const HostCpu cpu_before = ReadHostCpu();
  std::vector<SpeedProbe> probes = {ProbeSpeed()};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Servers servers;
    setups.push_back(SetUp(b, &servers, &tally, rep));
    Instance in = Measure(*b, servers, b->args.seconds / kSetupReps);
    servers.proc->Stop();
    probes.push_back(ProbeSpeed());
    for (const PhaseResult& r : in.phases) tally.Add(r);
    p50s.insert(p50s.end(), in.p50s.begin(), in.p50s.end());
    cpu_per_reply.insert(cpu_per_reply.end(), in.cpu_per_reply.begin(),
                         in.cpu_per_reply.end());
    ack_ms.insert(ack_ms.end(), in.ack_ms.begin(), in.ack_ms.end());
    rss.insert(rss.end(), in.rss_mb.begin(), in.rss_mb.end());
    self_checks = self_checks && in.self_check;
  }
  PrintHost(probes, StealPercent(cpu_before, ReadHostCpu()));
  if (p50s.empty() || cpu_per_reply.empty()) {
    Die("--seconds is too short for one whole window of each open loop");
  }
  const bool correct = tally.wrong == 0 && self_checks;
  PrintResult(correct, tally,
              {{"setup_s", Median(setups), "s"},
               {"p50_us", Median(p50s), "us"},
               {"cpu_us_per_req", Median(cpu_per_reply), "us"},
               {"update_p50_ms", Median(ack_ms), "ms"},
               // Read workloads: the largest instance's peak. With updates
               // the peak depends on whether a read still holds the old
               // generation's mapping when the next one publishes, a race,
               // so update-under-read reports the time-averaged resident
               // set instead.
               {"rss_mb",
                b->args.spec->updates_during_reads
                    ? std::accumulate(rss.begin(), rss.end(), 0.0) /
                          static_cast<double>(rss.size())
                    : *std::max_element(rss.begin(), rss.end()),
                "MB"}});
  return 0;
}

/// Adds the counts and samples of `more` to `into`.
void Accumulate(PhaseResult* into, const PhaseResult& more) {
  into->sent += more.sent;
  into->ok += more.ok;
  into->failed += more.failed;
  into->wrong += more.wrong;
  into->seconds += more.seconds;
  into->reply_bytes += more.reply_bytes;
  into->latency_us.insert(into->latency_us.end(), more.latency_us.begin(),
                          more.latency_us.end());
  into->late_us.insert(into->late_us.end(), more.late_us.begin(),
                       more.late_us.end());
  into->backlog_grew = into->backlog_grew || more.backlog_grew;
}

/// The stats verb's p50_latency_us (time inside HandleLine) of `port`.
double StatsP50(uint16_t port) {
  auto stats = ocular::JsonValue::Parse(RoundTrip(port, "{\"cmd\":\"stats\"}\n"));
  if (!stats.ok()) return 0.0;
  const ocular::JsonValue* p50 = stats->Find("p50_latency_us");
  return p50 == nullptr ? 0.0 : p50->number();
}

/// The traced run: per-layer metrics on the same seeded requests and
/// model, spans written to <work>/../traces.
int RunTraced(Bench* b) {
  const WorkloadSpec& spec = *b->args.spec;
  Tally tally;
  Servers servers;
  SetUp(b, &servers, &tally, 0);
  Tracer tracer;
  const HostCpu cpu_before = ReadHostCpu();
  std::vector<SpeedProbe> probes = {ProbeSpeed()};

  // In-process layers on the workload's own reads; the other read path
  // runs on its counterpart (a stored user's training row as a history,
  // or a sampled stored user for history workloads).
  std::vector<LayerRequest> requests;
  const uint32_t users = b->in.train->num_rows();
  for (uint64_t seq = 0; seq < kTracedRequests; ++seq) {
    LayerRequest req;
    const uint32_t key = b->Key(seq);
    req.line = b->lines[key].substr(0, b->lines[key].size() - 1);
    req.history_line = spec.history_reads;
    req.user = spec.history_reads ? static_cast<uint32_t>((seq * 7919) % users) : key;
    req.history_m = spec.m;
    if (spec.history_reads) {
      req.history = b->in.histories[key];
    } else {
      // A stored user's training row as an anonymous history, cut to a
      // long-but-typical length.
      const auto row = b->in.train->Row(key);
      req.history.assign(row.begin(),
                         row.begin() + std::min<size_t>(row.size(), kDerivedHistory));
    }
    requests.push_back(std::move(req));
  }
  if (auto st = TimeServingLayers(b->in, requests, &tracer); !st.ok()) {
    Die("serving layers: " + st.ToString());
  }

  // The fleet hop: the same requests directly and through ocular_fleet
  // over two replicas of the same artifact, in alternating blocks so box
  // drift hits both sides alike.
  auto fleet = StartServers(*b, true, b->args.work + "/fleet.log");
  if (!fleet) Die("fleet did not start");
  if (!WarmUp(*b, fleet->port, &tally)) Die("fleet warm-up failed");
  PhaseResult direct, via_fleet;
  direct.name = "pingpong-direct";
  via_fleet.name = "pingpong-fleet";
  const uint64_t block = kTracedRequests / kPingPongBlocks;
  for (uint64_t k = 0; k < kPingPongBlocks; ++k) {
    const uint64_t offset = k * block;
    const LineFn line = [&](uint64_t seq) -> const std::string& {
      return b->lines[b->Key(seq + offset)];
    };
    const CheckFn check = [&](uint64_t seq, const std::string& reply) {
      return reply == b->expected[b->Key(seq + offset)];
    };
    Accumulate(&direct, PingPong(servers.port, block, line, check, &tracer,
                                 "tcp.pingpong.direct"));
    Accumulate(&via_fleet, PingPong(fleet->port, block, line, check, &tracer,
                                    "tcp.pingpong.fleet"));
  }
  // Right after the direct ping-pongs, so its latency window holds them.
  const double stats_p50 = StatsP50(servers.port);
  fleet->proc->Stop();
  probes.push_back(ProbeSpeed());

  // Capacity: closed loop at saturation, scored like the untraced phases.
  PhaseResult capacity = ClosedLoop(servers.port, kCapacityConns, kCapacityDepth,
                                    b->args.seconds * kCapacityShare, b->Line(),
                                    b->Check());
  capacity.name = "capacity";

  // Tracing overhead: the open loop without and with spans, in
  // alternating blocks.
  PhaseResult plain, traced;
  plain.name = "open-loop";
  traced.name = "open-loop-traced";
  const double block_s = b->args.seconds / (2 * kOverheadBlocks);
  for (int k = 0; k < kOverheadBlocks; ++k) {
    Accumulate(&plain, OpenLoop(servers.port, kConns, spec.open_rate, block_s,
                                b->Line(), b->Check()));
    Accumulate(&traced, OpenLoop(servers.port, kConns, spec.open_rate, block_s,
                                 b->Line(), b->Check(), &tracer));
  }
  probes.push_back(ProbeSpeed());

  std::vector<double> sweeps;
  if (auto st = TimeUpdateLayers(b->in, b->updates, kTracedUpdates,
                                 b->args.work, &tracer, &sweeps);
      !st.ok()) {
    Die("update layers: " + st.ToString());
  }
  probes.push_back(ProbeSpeed());
  const HostCpu cpu_after = ReadHostCpu();
  servers.proc->Stop();
  for (const PhaseResult* r : {&direct, &via_fleet, &capacity, &plain, &traced}) {
    tally.Add(*r);
  }

  const std::string trace_path = b->args.work + "/../traces/" + spec.name +
                                 "-seed" + std::to_string(b->args.seed) + ".jsonl";
  fs::create_directories(b->args.work + "/../traces");
  if (!tracer.WriteJsonLines(trace_path)) Die("cannot write " + trace_path);

  auto med = [&](const char* name) { return tracer.MedianUs(name); };
  const double parse = med("json.parse");
  const double recommend = med("daemon.recommend");
  const double serve_user = med("score_engine.serve_topm.user");
  const double sanitize = med("fold_in.sanitize");
  const double fold_in = med("fold_in.fold_in_user");
  const double serve_history = med("score_engine.serve_topm.history");
  const double render = med("render.write_ranked");
  const double handle_line = med("daemon.handle_line");
  const double serve = spec.history_reads ? serve_history : serve_user;
  // The in-process core a request of this workload runs between parse
  // and render.
  const double core =
      spec.history_reads ? sanitize + fold_in + serve_history : recommend;
  const double codec = handle_line - core;
  const double pingpong = med("tcp.pingpong.direct");
  const double fleet_pingpong = med("tcp.pingpong.fleet");
  const double plain_p50 = Percentile(plain.latency_us, 0.5);
  const double traced_p50 = Percentile(traced.latency_us, 0.5);
  double request_bytes_sum = 0;
  for (const LayerRequest& r : requests) request_bytes_sum += r.line.size() + 1;

  const bool correct = tally.wrong == 0 && ScoringFlagsMutation(*b);
  PrintHost(probes, StealPercent(cpu_before, cpu_after));
  PrintResult(
      correct, tally,
      {{"score_engine.serve_topm_us", serve, "us"},
       {"daemon.recommend_us", recommend, "us"},
       {"daemon.lease_us", recommend - serve_user, "us"},
       {"json.parse_us", parse, "us"},
       {"render.write_ranked_us", render, "us"},
       {"daemon.codec_us", codec, "us"},
       {"fold_in.sanitize_us", sanitize, "us"},
       {"fold_in.fold_in_user_us", fold_in, "us"},
       {"daemon.tcp_pingpong_us", pingpong, "us"},
       {"daemon.transport_us", pingpong - handle_line, "us"},
       {"daemon.gap_us", pingpong - stats_p50, "us"},
       {"fleet.hop_us", fleet_pingpong - pingpong, "us"},
       {"incremental.update_model_ms", med("incremental.update_model") / 1e3, "ms"},
       {"incremental.sweeps_run", Median(sweeps), "count"},
       {"journal.append_ms", med("journal.append") / 1e3, "ms"},
       {"model_store.save_ms", med("model_store.save") / 1e3, "ms"},
       {"registry.reload_ms", med("registry.reload") / 1e3, "ms"},
       {"model_store.open_ms", med("model_store.open") / 1e3, "ms"},
       {"wire.request_bytes",
        request_bytes_sum / static_cast<double>(requests.size()), "bytes"},
       {"wire.reply_bytes",
        direct.ok == 0 ? 0.0
                       : static_cast<double>(direct.reply_bytes) /
                             static_cast<double>(direct.ok),
        "bytes"},
       {"ratio.codec_over_score", codec / serve, "ratio"},
       {"ratio.tcp_over_inproc", pingpong / handle_line, "ratio"},
       {"ratio.fleet_over_daemon", fleet_pingpong / pingpong, "ratio"},
       {"capacity_rps", Median(WindowRates(capacity)), "1/s"},
       {"p99_us", Percentile(plain.latency_us, 0.99), "us"},
       {"loadgen.late_p99_us", Percentile(plain.late_us, 0.99), "us"},
       {"host.ref_loop_us", MedianProbe(probes, &SpeedProbe::ref_loop_us), "us"},
       {"host.chase_ns", MedianProbe(probes, &SpeedProbe::chase_ns), "ns"},
       {"host.steal_pct", StealPercent(cpu_before, cpu_after), "%"},
       {"host.nproc", static_cast<double>(NumCpus()), "count"},
       {"trace.residual_us", pingpong - (parse + core + render), "us"},
       {"trace.overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0), "%"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Wake-ups of the open-loop generator land within a microsecond or so
  // of their due time instead of the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  perfbench::Bench bench;
  bench.args = perfbench::ParseArgs(argc, argv);
  std::filesystem::create_directories(bench.args.work);
  return bench.args.trace ? perfbench::RunTraced(&bench)
                          : perfbench::RunEndToEnd(&bench);
}
