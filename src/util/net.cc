#include "util/net.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace lva {

namespace {

using SteadyClock = std::chrono::steady_clock;

/** Absolute deadline for a timeoutMs budget; max() = no deadline. */
SteadyClock::time_point
deadlineFor(u64 timeoutMs)
{
    if (timeoutMs == 0)
        return SteadyClock::time_point::max();
    return SteadyClock::now() + std::chrono::milliseconds(timeoutMs);
}

/**
 * Milliseconds left until @p deadline as a poll(2) timeout operand:
 * -1 for "no deadline", 0 when already expired (poll returns at
 * once), clamped into int range otherwise.
 */
int
pollBudget(SteadyClock::time_point deadline)
{
    if (deadline == SteadyClock::time_point::max())
        return -1;
    const auto left = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline - SteadyClock::now());
    if (left.count() <= 0)
        return 0;
    if (left.count() > 60'000)
        return 60'000; // re-check the deadline at least every minute
    return static_cast<int>(left.count());
}

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw NetError(what + ": " + std::strerror(errno));
}

/**
 * Wait until @p fd is ready for @p events or @p deadline passes.
 * Throws NetError on expiry or poll failure.
 */
void
waitReady(int fd, short events, SteadyClock::time_point deadline,
          const char *what)
{
    for (;;) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = events;
        pfd.revents = 0;
        const int budget = pollBudget(deadline);
        if (deadline != SteadyClock::time_point::max() && budget == 0)
            throw NetError(std::string(what) + ": deadline expired");
        const int rc = ::poll(&pfd, 1, budget);
        if (rc > 0)
            return; // readable/writable — or error, surfaced by the op
        if (rc == 0)
            continue; // interim wakeup; loop re-checks the deadline
        if (errno == EINTR)
            continue;
        throwErrno(std::string(what) + ": poll");
    }
}

void
encodeHeader(unsigned char (&hdr)[8], std::size_t n)
{
    std::memcpy(hdr, frameMagic(), 4);
    hdr[4] = static_cast<unsigned char>((n >> 24) & 0xff);
    hdr[5] = static_cast<unsigned char>((n >> 16) & 0xff);
    hdr[6] = static_cast<unsigned char>((n >> 8) & 0xff);
    hdr[7] = static_cast<unsigned char>(n & 0xff);
}

} // namespace

std::size_t
frameMaxBytes()
{
    return 64u * 1024 * 1024;
}

const char *
frameMagic()
{
    return "LVA1";
}

TcpStream
TcpStream::connectTo(const std::string &host, u16 port, u64 timeoutMs)
{
    const auto deadline = deadlineFor(timeoutMs);

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw NetError("connect: bad address '" + host + "'");

    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throwErrno("connect: socket");
    TcpStream stream(fd);

    // Non-blocking connect so the deadline applies to the handshake;
    // the socket goes back to blocking mode afterwards (all later I/O
    // polls for readiness before each operation).
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throwErrno("connect: fcntl");
    const int rc = ::connect(
        fd, reinterpret_cast<struct sockaddr *>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS)
        throwErrno("connect");
    if (rc < 0) {
        waitReady(fd, POLLOUT, deadline, "connect");
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
            throwErrno("connect: getsockopt");
        if (err != 0) {
            errno = err;
            throwErrno("connect");
        }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0)
        throwErrno("connect: fcntl");
    return stream;
}

void
TcpStream::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
TcpStream::sendAll(const void *data, std::size_t n, u64 timeoutMs)
{
    if (fd_ < 0)
        throw NetError("send on a closed stream");
    const auto deadline = deadlineFor(timeoutMs);
    const char *p = static_cast<const char *>(data);
    std::size_t sent = 0;
    while (sent < n) {
        waitReady(fd_, POLLOUT, deadline, "send");
        const ssize_t rc =
            ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
        if (rc > 0) {
            sent += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc < 0 && (errno == EINTR || errno == EAGAIN ||
                       errno == EWOULDBLOCK))
            continue;
        throwErrno("send");
    }
}

bool
TcpStream::recvExact(void *data, std::size_t n, u64 timeoutMs,
                     bool eofOk)
{
    if (fd_ < 0)
        throw NetError("recv on a closed stream");
    const auto deadline = deadlineFor(timeoutMs);
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < n) {
        waitReady(fd_, POLLIN, deadline, "recv");
        const ssize_t rc = ::recv(fd_, p + got, n - got, 0);
        if (rc > 0) {
            got += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc == 0) {
            if (got == 0 && eofOk)
                return false;
            throw NetError("recv: connection closed mid-transfer");
        }
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        throwErrno("recv");
    }
    return true;
}

TcpListener::TcpListener(u16 port)
{
    // Release whatever was opened so far, then throw: a constructor
    // that throws never runs the destructor.
    auto fail = [this](const std::string &what) {
        const int saved = errno;
        close();
        errno = saved;
        throwErrno(what);
    };
    int wake[2];
    if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) < 0)
        throwErrno("listen: pipe");
    wakeRd_ = wake[0];
    wakeWr_ = wake[1];

    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        fail("listen: socket");
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fail("listen: bind 127.0.0.1:" + std::to_string(port));
    if (::listen(fd_, 64) < 0)
        fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(
            fd_, reinterpret_cast<struct sockaddr *>(&addr), &len) < 0)
        fail("listen: getsockname");
    port_ = ntohs(addr.sin_port);
}

TcpStream
TcpListener::acceptOne(u64 timeoutMs)
{
    if (fd_ < 0)
        throw NetError("accept on a closed listener");
    const auto deadline = deadlineFor(timeoutMs);
    for (;;) {
        struct pollfd pfd[2];
        pfd[0].fd = fd_;
        pfd[0].events = POLLIN;
        pfd[0].revents = 0;
        pfd[1].fd = wakeRd_;
        pfd[1].events = POLLIN;
        pfd[1].revents = 0;
        const int budget = pollBudget(deadline);
        if (deadline != SteadyClock::time_point::max() && budget == 0)
            return TcpStream(); // timeout: no connection waiting
        const int prc = ::poll(pfd, 2, budget);
        if (prc == 0)
            continue; // loop re-checks the deadline
        if (prc < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("accept: poll");
        }
        if (pfd[1].revents != 0) {
            // Woken: drain the pipe (pending wakes collapse into
            // this one) and report "no connection".
            char drain[64];
            while (::read(wakeRd_, drain, sizeof(drain)) > 0) {
            }
            return TcpStream();
        }
        const int conn = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (conn >= 0)
            return TcpStream(conn);
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK || errno == ECONNABORTED)
            continue;
        throwErrno("accept");
    }
}

void
TcpListener::wake()
{
    // Runs in signal handlers: touch nothing but the pipe, and leave
    // errno as the interrupted code had it. A full pipe (EAGAIN)
    // already holds a pending wake, so a failed write loses nothing.
    const int saved = errno;
    const char byte = 1;
    if (wakeWr_ >= 0 && ::write(wakeWr_, &byte, 1) < 0) {
    }
    errno = saved;
}

void
TcpListener::close()
{
    for (int *fd : {&fd_, &wakeRd_, &wakeWr_}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
}

void
writeFrame(TcpStream &stream, const std::string &payload, u64 timeoutMs)
{
    if (payload.size() > frameMaxBytes())
        throw NetError("frame payload too large (" +
                       std::to_string(payload.size()) + " > " +
                       std::to_string(frameMaxBytes()) + " bytes)");
    unsigned char hdr[8];
    encodeHeader(hdr, payload.size());
    stream.sendAll(hdr, sizeof(hdr), timeoutMs);
    if (!payload.empty())
        stream.sendAll(payload.data(), payload.size(), timeoutMs);
}

bool
readFrame(TcpStream &stream, std::string &payload, u64 timeoutMs)
{
    unsigned char hdr[8];
    if (!stream.recvExact(hdr, sizeof(hdr), timeoutMs,
                          /*eofOk=*/true))
        return false; // clean EOF at a frame boundary
    if (std::memcmp(hdr, frameMagic(), 4) != 0)
        throw NetError("bad frame magic");
    const std::size_t n = (static_cast<std::size_t>(hdr[4]) << 24) |
                          (static_cast<std::size_t>(hdr[5]) << 16) |
                          (static_cast<std::size_t>(hdr[6]) << 8) |
                          static_cast<std::size_t>(hdr[7]);
    if (n > frameMaxBytes())
        throw NetError("frame payload too large (" +
                       std::to_string(n) + " > " +
                       std::to_string(frameMaxBytes()) + " bytes)");
    payload.resize(n);
    if (n > 0)
        stream.recvExact(payload.data(), n, timeoutMs);
    return true;
}

} // namespace lva
