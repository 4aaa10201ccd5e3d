#include "host.h"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Every started, not yet stopped Process (single-threaded use).
std::vector<Process*>& Live() {
  static std::vector<Process*> live;
  return live;
}

bool PidExists(pid_t pid) { return ::kill(pid, 0) == 0 || errno == EPERM; }

/// Fields after the parenthesised comm of /proc/<pid>/stat (field 3 on).
std::vector<std::string> StatFields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<std::string> fields;
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream rest(text.substr(close + 1));
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;
}

void KillAndWait(pid_t pid) {
  if (!PidExists(pid)) return;
  ::kill(pid, SIGKILL);
  for (int i = 0; i < 500 && PidExists(pid); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

bool Process::Start(const std::vector<std::string>& argv,
                    const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  Live().push_back(this);
  return true;
}

bool Process::Alive() {
  if (pid_ < 0) return false;
  return ::waitpid(pid_, nullptr, WNOHANG) == 0;
}

void Process::Stop() {
  if (pid_ < 0) return;
  const std::vector<pid_t> children = ChildrenOf(pid_);
  ::kill(pid_, SIGTERM);
  bool reaped = false;
  for (int i = 0; i < 1000 && !reaped; ++i) {
    reaped = ::waitpid(pid_, nullptr, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  for (const pid_t child : children) KillAndWait(child);
  pid_ = -1;
  std::erase(Live(), this);
}

void StopAllProcesses() {
  while (!Live().empty()) Live().back()->Stop();
}

std::vector<pid_t> ChildrenOf(pid_t pid) {
  std::vector<pid_t> children;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return children;
  while (const dirent* entry = ::readdir(dir)) {
    const pid_t candidate = static_cast<pid_t>(std::atoi(entry->d_name));
    if (candidate <= 0) continue;
    const std::vector<std::string> fields = StatFields(candidate);
    // fields[0] = state, fields[1] = ppid.
    if (fields.size() > 1 && std::atoi(fields[1].c_str()) == pid) {
      children.push_back(candidate);
    }
  }
  ::closedir(dir);
  return children;
}

double ProcessCpuSeconds(pid_t pid) {
  // Nanoseconds on CPU of each live thread (the first schedstat field):
  // utime + stime in /proc/<pid>/stat count 10 ms ticks, too coarse to
  // tell two runs apart. The servers keep fixed thread pools, so no
  // thread's time is lost by exiting mid-phase.
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return 0.0;
  double ns = 0.0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
    double on_cpu = 0.0;
    if (in >> on_cpu) ns += on_cpu;
  }
  ::closedir(dir);
  return ns / 1e9;
}

double ProcessMemoryMb(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string prefix = field + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostCpu cpu;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already folded into user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    cpu.total += v;
    if (i == 7) cpu.steal = v;
  }
  return cpu;
}

double StealPercent(const HostCpu& before, const HostCpu& after) {
  const uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double RefLoopUs() {
  const double start = NowUs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  asm volatile("" : "+r"(x));  // an input the compiler cannot fold
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : "+r"(x));  // ...and a result needed before the timer
  return NowUs() - start;
}

double CacheChaseNs() {
  constexpr uint32_t kSlots = (16u << 20) / sizeof(uint32_t);
  constexpr uint32_t kSteps = 1u << 20;
  // Sattolo's shuffle of the identity: next[] is one cycle through every
  // slot, in an order no prefetcher can follow.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) v[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  uint32_t at = 0;
  const double start = NowUs();
  for (uint32_t i = 0; i < kSteps; ++i) at = next[at];
  asm volatile("" : "+r"(at));  // the chase must finish before the timer
  return (NowUs() - start) * 1e3 / kSteps;
}

SpeedProbe ProbeSpeed() { return {RefLoopUs(), CacheChaseNs()}; }

uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

int NumCpus() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

}  // namespace perfbench
