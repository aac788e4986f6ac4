#include "proc.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "spans.hh"
#include "util/net.hh"

namespace perfbench {

Child::Child(const std::vector<std::string> &argv,
             const std::vector<std::string> &env,
             const std::string &logPath)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    std::vector<char *> cenv;
    for (const std::string &e : env)
        cenv.push_back(const_cast<char *>(e.c_str()));
    cenv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        ::setpgid(0, 0);
        ::dup2(fds[1], STDOUT_FILENO);
        const int err = ::open(logPath.c_str(),
                               O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (err >= 0)
            ::dup2(err, STDERR_FILENO);
        ::execve(cargv[0], cargv.data(), cenv.data());
        ::_exit(127);
    }
    ::setpgid(pid, pid);
    ::close(fds[1]);
    pid_ = pid;
    outFd_ = fds[0];
}

Child::~Child()
{
    if (pid_ > 0)
        wait(0.0);
    if (outFd_ >= 0)
        ::close(outFd_);
}

std::string
Child::readLine(double timeoutS)
{
    const double deadline = nowSeconds() + timeoutS;
    for (;;) {
        const std::size_t nl = buffered_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffered_.substr(0, nl);
            buffered_.erase(0, nl + 1);
            return line;
        }
        const double left = deadline - nowSeconds();
        if (left <= 0)
            throw std::runtime_error("child produced no line in time");
        struct pollfd p = {outFd_, POLLIN, 0};
        const int r = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            continue;
        char buf[4096];
        const ssize_t n = ::read(outFd_, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("child closed stdout");
        buffered_.append(buf, static_cast<std::size_t>(n));
    }
}

int
Child::wait(double timeoutS)
{
    if (pid_ <= 0)
        return 0;
    const double deadline = nowSeconds() + timeoutS;
    int status = 0;
    for (;;) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_)
            break;
        if (r < 0 && errno != EINTR) {
            pid_ = -1;
            return -1;
        }
        if (nowSeconds() >= deadline) {
            ::kill(-pid_, SIGKILL);
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

double
Child::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

std::vector<std::string>
childEnv(const std::vector<std::string> &extra)
{
    std::vector<std::string> env;
    const char *path = std::getenv("PATH");
    env.push_back(std::string("PATH=") +
                  (path ? path : "/usr/bin:/bin"));
    env.push_back("LVA_JOBS=1");
    env.push_back("LVA_SEEDS=1");
    env.insert(env.end(), extra.begin(), extra.end());
    return env;
}

std::string
rpc(lva::u16 port, const std::string &request, lva::u64 timeoutMs)
{
    lva::TcpStream s = lva::TcpStream::connectTo("127.0.0.1", port,
                                                 timeoutMs);
    lva::writeFrame(s, request, timeoutMs);
    std::string response;
    if (!lva::readFrame(s, response, timeoutMs))
        throw std::runtime_error("connection closed before a response");
    return response;
}

Daemon::Daemon(const std::string &bindir,
               const std::vector<std::string> &args,
               const std::string &logPath)
    : child_(
          [&] {
              std::vector<std::string> argv{bindir + "/lva_served",
                                            "--port", "0"};
              argv.insert(argv.end(), args.begin(), args.end());
              return argv;
          }(),
          childEnv({}), logPath)
{
    // "lva_served: listening on 127.0.0.1:<port> (...)"
    const std::string line = child_.readLine(30.0);
    const std::size_t colon = line.find("127.0.0.1:");
    if (colon == std::string::npos)
        throw std::runtime_error("unexpected daemon banner: " + line);
    port_ = static_cast<lva::u16>(std::atoi(line.c_str() + colon + 10));
}

Daemon::~Daemon()
{
    try {
        stop();
    } catch (...) {
        child_.wait(0.0);
    }
}

int
Daemon::stop()
{
    if (!child_.running())
        return 0;
    try {
        rpc(port_, "{\"op\":\"shutdown\"}", 5000);
    } catch (const std::exception &) {
        // Already gone or wedged: the bounded wait below kills it.
    }
    return child_.wait(10.0);
}

} // namespace perfbench
