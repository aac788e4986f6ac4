/**
 * @file
 * Worker supervision shared by the fleet-shaped tools (lva_fleet,
 * lva_sweep_coord), and the lva_served flags they forward.
 *
 * fleet::Supervisor spawns lva_served workers on ephemeral ports,
 * picks a live one by rendezvous rank (respawning the dead), and
 * drains them at exit. Each worker announces its port on a stdout
 * pipe whose read end the supervisor keeps; the pipe is close-on-exec
 * everywhere else, so the worker holds the only write end and EOF on
 * it means the worker exited. Liveness checks and the drain's reap
 * block on that EOF instead of polling waitpid on a timer, and the
 * reap still escalates to SIGKILL after a deadline so a wedged worker
 * cannot hang a drain (docs/serving.md, "The fleet").
 */

#ifndef LVA_TOOLS_FLEET_COMMON_HH
#define LVA_TOOLS_FLEET_COMMON_HH

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "eval/service.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/types.hh"

namespace lva::fleet {

/** What lva_served's command line sets, --port aside. */
struct ServedFlags
{
    ServeOptions serve;
    u32 seeds = 0;
    double scale = 0.0;
};

/**
 * Parse @p value for lva_served flag @p flag into @p out, strictly
 * and in the range lva_served applies. The flags are lva_served's
 * value flags other than --port: --workers, --queue, --deadline-ms,
 * --retries, --jobs, --cache, --seeds and --scale. False when
 * @p flag is none of them or @p value is malformed or out of range.
 * The fleet frontends check every flag they forward with this before
 * forking, so a bad one is a usage error, not a worker that never
 * announces a port.
 */
inline bool
applyServedFlag(const std::string &flag, const char *value,
                ServedFlags &out)
{
    const auto set = [value](u64 max, auto &field) {
        const std::optional<u64> v = parseU64(value, 0, max);
        if (v)
            field = static_cast<std::decay_t<decltype(field)>>(*v);
        return v.has_value();
    };
    ServeOptions &s = out.serve;
    if (flag == "--workers")
        return set(256, s.workers);
    if (flag == "--queue")
        return set(1000000, s.queueCap);
    if (flag == "--deadline-ms")
        return set(86400000, s.deadlineMs);
    if (flag == "--retries" && set(99, s.maxAttempts)) {
        ++s.maxAttempts; // n retries = n + 1 attempts
        return true;
    }
    if (flag == "--jobs")
        return set(256, s.jobs);
    if (flag == "--cache")
        return set(1000000, s.cacheCap);
    if (flag == "--seeds")
        return set(64, out.seeds);
    if (flag == "--scale") {
        const std::optional<double> v = parseF64(value, 0.0, 4.0);
        if (v)
            out.scale = *v;
        return v.has_value();
    }
    return false;
}

/** Worker binary path: LVA_FLEET_SERVED, else a sibling lva_served. */
inline std::string
defaultServedPath()
{
    // String-valued binary path. lva-audit: allow(knob-unvalidated)
    if (const char *env = std::getenv("LVA_FLEET_SERVED"))
        return env;
    // Sibling of this binary: build/tools/lva_fleet -> .../lva_served.
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string self(buf);
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos)
            return self.substr(0, slash + 1) + "lva_served";
    }
    return "lva_served";
}

/**
 * The fault armed for one worker's first incarnation, from
 * LVA_FLEET_FAULT="<idx|*>:<spec>" ("" = none). Respawns never
 * inherit it — that is the whole point of routing the injection
 * through the supervisor instead of plain LVA_FAULT.
 */
inline std::string
firstIncarnationFault(u32 index)
{
    // String-valued fault routing spec, validated right below.
    // lva-audit: allow(knob-unvalidated)
    const char *env = std::getenv("LVA_FLEET_FAULT");
    if (!env || !*env)
        return "";
    const std::string spec(env);
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
        lva_warn("ignoring malformed LVA_FLEET_FAULT=\"%s\"", env);
        return "";
    }
    const std::string target = spec.substr(0, colon);
    if (target != "*" && target != std::to_string(index))
        return "";
    return spec.substr(colon + 1);
}

/**
 * Wait for the worker's "listening on 127.0.0.1:<port>" line on
 * @p fd (its stdout pipe) and return the port; 0 on timeout, EOF or
 * a malformed port.
 */
inline u16
readWorkerPort(int fd, u64 timeoutMs)
{
    std::string buf;
    for (;;) {
        struct pollfd pfd = {fd, POLLIN, 0};
        const int r = ::poll(&pfd, 1, static_cast<int>(timeoutMs));
        if (r <= 0)
            return 0;
        char chunk[256];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            return 0;
        buf.append(chunk, static_cast<std::size_t>(n));
        const std::size_t at = buf.find("127.0.0.1:");
        if (at != std::string::npos) {
            const std::size_t digits = at + std::strlen("127.0.0.1:");
            if (buf.find('\n', digits) == std::string::npos)
                continue; // port digits may still be in flight
            const std::size_t end =
                buf.find_first_not_of("0123456789", digits);
            const std::optional<u64> port = parseU64(
                buf.substr(digits, end - digits).c_str(), 1, 65535);
            return port ? static_cast<u16>(*port) : 0;
        }
    }
}

/** One request/response exchange with the worker on @p port. */
inline std::string
roundTrip(u16 port, const std::string &request, u64 timeoutMs)
{
    TcpStream conn = TcpStream::connectTo("127.0.0.1", port, timeoutMs);
    writeFrame(conn, request, timeoutMs);
    std::string response;
    if (!readFrame(conn, response, timeoutMs))
        throw NetError("worker closed without a response");
    return response;
}

/**
 * A fixed-size fleet of lva_served workers, shared by the threads of
 * one frontend (every member locks). Worker i's first incarnation
 * gets LVA_FLEET_FAULT's spec; respawns come up clean.
 */
class Supervisor
{
  public:
    /** A chosen worker; @p respawned counts workers pick() spawned. */
    struct Pick
    {
        u32 index = 0;
        u16 port = 0;
        u32 respawned = 0;
    };

    /**
     * @param served worker binary
     * @param passThrough flags forwarded verbatim to every worker
     * @param tag prefixes every log line ("<tag>: worker ...")
     */
    Supervisor(std::string served, std::vector<std::string> passThrough,
               u32 count, const char *tag)
        : served_(std::move(served)), passThrough_(std::move(passThrough)),
          tag_(tag), workers_(count)
    {
    }

    ~Supervisor()
    {
        for (Worker &w : workers_) {
            if (w.pipeFd >= 0)
                ::close(w.pipeFd);
        }
    }

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    u32 size() const { return static_cast<u32>(workers_.size()); }

    void
    spawnAll()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (u32 i = 0; i < workers_.size(); ++i)
            spawnLocked(i);
    }

    /**
     * The first live worker in @p rank. When none is alive, every
     * dead worker in @p rank is respawned and rank[0] is returned.
     */
    Pick
    pick(const std::vector<u32> &rank)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const u32 r : rank) {
            if (aliveLocked(r))
                return {r, workers_[r].port, 0};
        }
        Pick p{rank[0], 0, 0};
        for (const u32 r : rank) {
            lva_warn("%s: respawning worker %u", tag_, r);
            spawnLocked(r);
            ++p.respawned;
        }
        p.port = workers_[rank[0]].port;
        return p;
    }

    /**
     * After a failed exchange with worker @p index: reap it if it has
     * exited, so the next pick() moves on; if it is still running (a
     * deadline or a malformed response), pause briefly before the
     * caller retries it.
     */
    void
    noteFailure(u32 index)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!aliveLocked(index))
                return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    /**
     * Teardown: one `shutdown` frame per live worker (unless the
     * caller already relayed one), then a reap bounded by
     * kDrainDeadlineMs per worker.
     */
    void
    drainAll(bool sendShutdown)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (sendShutdown) {
            const std::string req = "{\"schema\":\"lva-rpc-v1\","
                                    "\"op\":\"shutdown\"}";
            for (u32 i = 0; i < workers_.size(); ++i) {
                if (workers_[i].pid <= 0)
                    continue;
                try {
                    roundTrip(workers_[i].port, req, kDrainDeadlineMs);
                } catch (const std::exception &e) {
                    // Dead or wedged either way; the reap settles it.
                    lva_warn("%s: shutdown frame to worker %u: %s", tag_, i,
                             e.what());
                }
            }
        }
        for (u32 i = 0; i < workers_.size(); ++i) {
            Worker &w = workers_[i];
            if (w.pid <= 0)
                continue;
            if (!pipeEofWithin(w.pipeFd, kDrainDeadlineMs)) {
                // Wedged (or SIGSTOP'd): never let it hang the drain.
                lva_warn("%s: worker %u (pid %d) did not exit within "
                         "%llu ms; sending SIGKILL",
                         tag_, i, static_cast<int>(w.pid),
                         static_cast<unsigned long long>(kDrainDeadlineMs));
                ::kill(w.pid, SIGKILL);
            }
            reap(w);
        }
    }

  private:
    /** Per shutdown frame, and per worker reap before SIGKILL. */
    static constexpr u64 kDrainDeadlineMs = 2000;

    /** One supervised lva_served process. */
    struct Worker
    {
        pid_t pid = -1;
        u16 port = 0;
        int pipeFd = -1;     ///< read end of the worker's stdout
        u32 incarnation = 0; ///< 0 = first spawn, >0 = respawn
    };

    /**
     * Fork+exec worker @p index on an ephemeral port and read its
     * announced port from the stdout pipe, which stays open for the
     * worker's lifetime (it writes its drain line there at exit and
     * must not take SIGPIPE). Fatal if the worker never announces.
     */
    void
    spawnLocked(u32 index)
    {
        Worker &w = workers_[index];
        // O_CLOEXEC: no other child may inherit either end, or the
        // worker's exit would not read as EOF here. dup2 clears the
        // flag on the worker's own stdout.
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            lva_fatal("%s: pipe: %s", tag_, std::strerror(errno));

        const std::string fault =
            w.incarnation == 0 ? firstIncarnationFault(index) : "";

        const pid_t pid = ::fork();
        if (pid < 0)
            lva_fatal("%s: fork: %s", tag_, std::strerror(errno));
        if (pid == 0) {
            ::dup2(fds[1], STDOUT_FILENO);
            if (!fault.empty())
                ::setenv("LVA_FAULT", fault.c_str(), 1);
            else
                ::unsetenv("LVA_FAULT");
            // The supervisor owns fleet policy; a worker must never
            // recurse into fleet spawning via inherited knobs.
            ::unsetenv("LVA_FLEET_FAULT");
            ::unsetenv("LVA_SERVE_PORT");

            std::vector<const char *> args = {served_.c_str(), "--port", "0"};
            for (const std::string &a : passThrough_)
                args.push_back(a.c_str());
            args.push_back(nullptr);
            ::execv(served_.c_str(),
                    const_cast<char *const *>(args.data()));
            std::fprintf(stderr, "%s: exec %s: %s\n", tag_,
                         served_.c_str(), std::strerror(errno));
            ::_Exit(127);
        }

        ::close(fds[1]);
        w.pid = pid;
        w.pipeFd = fds[0];
        w.port = readWorkerPort(fds[0], 30000);
        if (w.port == 0)
            lva_fatal("%s: worker %u did not announce a port", tag_,
                      index);
        std::fprintf(stderr,
                     "%s: worker %u (incarnation %u) pid %d "
                     "on 127.0.0.1:%u\n",
                     tag_, index, w.incarnation, static_cast<int>(pid),
                     static_cast<unsigned>(w.port));
        ++w.incarnation;
    }

    /**
     * Read stdout pipe @p fd until EOF or @p ms pass (0 = only what is
     * already there). The worker holds the pipe's only write end, so
     * EOF means it exited. True on EOF.
     */
    static bool
    pipeEofWithin(int fd, u64 ms)
    {
        using Clock = std::chrono::steady_clock;
        const auto deadline = Clock::now() + std::chrono::milliseconds(ms);
        for (;;) {
            const long long left =
                (deadline - Clock::now()) / std::chrono::milliseconds(1);
            struct pollfd pfd = {fd, POLLIN, 0};
            const int r =
                ::poll(&pfd, 1, static_cast<int>(std::max(left, 0LL)));
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0)
                return false;
            char drain[256];
            const ssize_t n = ::read(fd, drain, sizeof(drain));
            if (n == 0)
                return true;
            if (n < 0 && errno != EINTR)
                return false;
        }
    }

    /** Collect exited (or SIGKILLed) worker @p w; returns its status. */
    static int
    reap(Worker &w)
    {
        int st = 0;
        ::waitpid(w.pid, &st, 0); // exiting already: returns promptly
        ::close(w.pipeFd);
        w.pid = -1;
        w.pipeFd = -1;
        return st;
    }

    /**
     * Whether worker @p index is running. One that exited is reaped
     * (status logged) and marked dead.
     */
    bool
    aliveLocked(u32 index)
    {
        Worker &w = workers_[index];
        if (w.pid <= 0)
            return false;
        if (!pipeEofWithin(w.pipeFd, 0))
            return true;
        const pid_t pid = w.pid;
        const int st = reap(w);
        lva_warn("%s: worker %u (pid %d) exited with status %d", tag_, index,
                 static_cast<int>(pid),
                 WIFEXITED(st) ? WEXITSTATUS(st) : -WTERMSIG(st));
        return false;
    }

    const std::string served_;
    const std::vector<std::string> passThrough_;
    const char *const tag_;
    std::mutex mutex_; ///< guards workers_
    std::vector<Worker> workers_;
};

} // namespace lva::fleet

#endif // LVA_TOOLS_FLEET_COMMON_HH
