/**
 * @file
 * Child processes the benchmark starts: the lva_served daemon and
 * the lva_sweep_coord coordinator. Each child runs in its own
 * process group so a timed-out child is killed together with any
 * workers it forked, and every child is waited for.
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/types.hh"

namespace perfbench {

/** A started child; the destructor kills and reaps it if still up. */
class Child
{
  public:
    /**
     * Start @p argv with exactly the environment @p env. stdout goes
     * to a pipe readable through readLine(); stderr is appended to
     * @p logPath.
     */
    Child(const std::vector<std::string> &argv,
          const std::vector<std::string> &env,
          const std::string &logPath);
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    bool running() const { return pid_ > 0; }

    /** Next stdout line within @p timeoutS; throws on EOF/timeout. */
    std::string readLine(double timeoutS);

    /**
     * Wait up to @p timeoutS for the child to exit, then kill its
     * process group and reap it. Returns the exit code, or -signal.
     */
    int wait(double timeoutS);

    /** Peak resident set (VmHWM) of the running child, in MB. */
    double peakRssMb() const;

  private:
    pid_t pid_ = -1;
    int outFd_ = -1;
    std::string buffered_;
};

/**
 * The environment every child gets: PATH plus the pinned LVA knobs
 * (LVA_JOBS=1, one seed) and @p extra entries ("KEY=value"). Nothing
 * else from the caller's environment leaks into the system under
 * test.
 */
std::vector<std::string> childEnv(const std::vector<std::string> &extra);

/** Send one lva-rpc-v1 request and return the response payload. */
std::string rpc(lva::u16 port, const std::string &request,
                lva::u64 timeoutMs = 60000);

/** A running lva_served daemon on an ephemeral port. */
class Daemon
{
  public:
    Daemon(const std::string &bindir, const std::vector<std::string> &args,
           const std::string &logPath);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    lva::u16 port() const { return port_; }
    double peakRssMb() const { return child_.peakRssMb(); }

    /** Ask the daemon to drain and exit; reap it. Returns exit code. */
    int stop();

  private:
    Child child_;
    lva::u16 port_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
