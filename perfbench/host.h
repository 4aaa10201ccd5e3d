// Host-side helpers of the serving benchmark: child processes, /proc
// readings, and the machine-speed probe.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in microseconds.
double NowUs();

/// \brief A spawned server process, stopped (SIGTERM, then SIGKILL) and
/// reaped by Stop() or the destructor. Processes the child spawned itself
/// (fleet replicas) are found through /proc before the child is signalled
/// and are killed too if they outlive it.
class Process {
 public:
  Process() = default;
  ~Process() { Stop(); }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// fork/execs `argv` with stdout and stderr appended to `log_path`.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path);
  /// Stops the process and every descendant; idempotent.
  void Stop();
  /// True while the process has not exited.
  bool Alive();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Stops every Process still running — for fatal-error exits, which skip
/// destructors.
void StopAllProcesses();

/// Direct children of `pid` (from the ppid field of /proc/<n>/stat).
std::vector<pid_t> ChildrenOf(pid_t pid);

/// CPU time of every live thread of `pid` in seconds, from
/// /proc/<pid>/task/*/schedstat (0 if gone).
double ProcessCpuSeconds(pid_t pid);

/// A memory field of /proc/<pid>/status ("VmHWM" for the peak resident
/// set, "VmRSS" for the current one) in MiB; 0 if gone.
double ProcessMemoryMb(pid_t pid, const std::string& field);

/// Aggregate jiffies of /proc/stat's "cpu" line.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

/// Share of CPU time stolen by the hypervisor between two readings, in %.
double StealPercent(const HostCpu& before, const HostCpu& after);

/// Wall time of a fixed single-threaded integer loop, in microseconds — a
/// probe of how fast this box runs right now, independent of the program.
double RefLoopUs();

/// Mean time of one step of a pointer chase around a random cycle over
/// 16 MiB, in nanoseconds: past the per-core L2, inside the shared L3. It
/// shows how much of the L3 and memory bandwidth the host's other tenants
/// leave, which moves cache-bound serving code while RefLoopUs stays flat.
double CacheChaseNs();

/// Both speed probes, read together before and after each phase.
struct SpeedProbe {
  double ref_loop_us;
  double chase_ns;
};
SpeedProbe ProbeSpeed();

/// A loopback TCP port that was free a moment ago (bind to port 0).
uint16_t FreePort();

/// Online CPUs.
int NumCpus();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
