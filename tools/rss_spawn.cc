// rss_spawn: runs one command and reports that child's peak resident set.
//
//   rss_spawn PROGRAM [ARGS...]
//
// Forks, execs PROGRAM with its stdout sent to /dev/null (stderr inherited),
// waits for it and prints "<ru_maxrss> <exit code>" on stdout: the peak RSS
// in KiB (bytes on macOS), and 128 + N for a child killed by signal N.
// Exits 0 once the child has been reaped, 1 when it could not be started.
//
// A child's ru_maxrss includes its parent's resident pages at fork, so a
// peak measured for a child of a Python interpreter is mostly the
// interpreter's. Forked from this small process, the reading is the
// command's own. tools/perf_smoke.py --cli measures its RSS gates through it.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: rss_spawn PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
    }
    execvp(argv[1], argv + 1);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || wait4(pid, &status, 0, &usage) != pid) {
    std::fprintf(stderr, "rss_spawn: could not run %s\n", argv[1]);
    return 1;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf("%ld %d\n", usage.ru_maxrss, code);
  return 0;
}
