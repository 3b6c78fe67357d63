// A spawned torusplace process: pipes for its stdout/stderr, its CPU time
// while it runs, and its rusage when it is reaped.

#pragma once

#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace tpbench {

struct ExitInfo {
  int status = 0;           ///< raw wait status
  double cpu_s = 0.0;       ///< user + system time of the whole process
  double maxrss_mib = 0.0;  ///< ru_maxrss
};

class Child {
 public:
  /// Spawns argv[0] with stdin on /dev/null and stdout/stderr on pipes.
  /// Throws tp::Error when the spawn fails.
  explicit Child(const std::vector<std::string>& argv);

  /// Kills (SIGKILL) and reaps a child that was never waited for, so no
  /// process outlives the benchmark on an error path.
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Reads stderr up to the first line containing `needle` and returns
  /// that line.  Throws tp::Error if stderr closes first.
  std::string read_err_line(std::string_view needle);

  /// Reads stdout and stderr until both are closed.
  void read_to_eof(std::string* out, std::string* err);

  void signal(int sig) const;

  /// Reaps the child (blocking).  Call once.
  ExitInfo wait();

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  int err_ = -1;
  std::string err_buf_;
};

/// The CPUs the calling thread may run on, in ascending order.
std::vector<int> allowed_cpus();

/// Restricts the calling thread — and every thread and process it starts
/// afterwards — to `cpu`.  Throws tp::Error when the mask cannot be set.
void pin_to_cpu(int cpu);

/// utime + stime of a running process, from /proc/<pid>/stat (clock-tick
/// resolution).
double proc_cpu_seconds(pid_t pid);

/// True when the wait status is a normal exit with code 0.
bool exited_cleanly(const ExitInfo& info);

}  // namespace tpbench
