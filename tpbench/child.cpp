#include "child.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/util/error.h"

extern char** environ;

namespace tpbench {

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// Appends what one read() returns; false at EOF.
bool read_once(int fd, std::string& into) {
  char buf[65536];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got > 0) {
      into.append(buf, static_cast<std::size_t>(got));
      return true;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
}

}  // namespace

Child::Child(const std::vector<std::string>& argv) {
  int out[2] = {-1, -1};
  int err[2] = {-1, -1};
  TP_REQUIRE(::pipe2(out, O_CLOEXEC) == 0 && ::pipe2(err, O_CLOEXEC) == 0,
             "cannot create pipes for a child process");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err[1], 2);

  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  ::close(err[1]);
  out_ = out[0];
  err_ = err[0];
  if (rc != 0) {
    pid_ = -1;
    throw tp::Error("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_ >= 0) ::close(out_);
  if (err_ >= 0) ::close(err_);
}

std::string Child::read_err_line(std::string_view needle) {
  for (;;) {
    std::size_t start = 0;
    for (std::size_t nl; (nl = err_buf_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const std::string line = err_buf_.substr(start, nl - start);
      if (line.find(needle) != std::string::npos) {
        err_buf_.erase(0, nl + 1);
        return line;
      }
    }
    TP_REQUIRE(read_once(err_, err_buf_),
               "child stderr closed before '" + std::string(needle) +
                   "': " + err_buf_);
  }
}

void Child::read_to_eof(std::string* out, std::string* err) {
  std::string sink;
  std::string& out_text = out != nullptr ? *out : sink;
  std::string& err_text = err != nullptr ? *err : sink;
  err_text += err_buf_;
  err_buf_.clear();
  bool out_open = true;
  bool err_open = true;
  while (out_open || err_open) {
    pollfd fds[2] = {{out_open ? out_ : -1, POLLIN, 0},
                     {err_open ? err_ : -1, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      throw tp::Error("poll on child pipes failed");
    }
    if (fds[0].revents != 0) out_open = read_once(out_, out_text);
    if (fds[1].revents != 0) err_open = read_once(err_, err_text);
  }
}

void Child::signal(int sig) const {
  if (pid_ > 0) ::kill(pid_, sig);
}

ExitInfo Child::wait() {
  TP_REQUIRE(pid_ > 0, "child already reaped");
  ExitInfo info;
  rusage usage{};
  while (::wait4(pid_, &info.status, 0, &usage) < 0)
    TP_REQUIRE(errno == EINTR, "wait4 failed");
  pid_ = -1;
  info.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  info.maxrss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return info;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  TP_REQUIRE(::sched_getaffinity(0, sizeof set, &set) == 0,
             "cannot read the CPU affinity mask");
  std::vector<int> out;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) out.push_back(static_cast<int>(cpu));
  return out;
}

void pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  TP_REQUIRE(::sched_setaffinity(0, sizeof one, &one) == 0,
             "cannot pin to CPU " + std::to_string(cpu));
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. the 12th and 13th here.
  const std::size_t close = text.rfind(')');
  TP_REQUIRE(close != std::string::npos, "unreadable /proc stat for a child");
  std::size_t pos = close + 2;
  double ticks = 0.0;
  for (int field = 3; field <= 15; ++field) {
    const std::size_t end = text.find(' ', pos);
    if (field >= 14) ticks += std::stod(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool exited_cleanly(const ExitInfo& info) {
  return WIFEXITED(info.status) && WEXITSTATUS(info.status) == 0;
}

}  // namespace tpbench
