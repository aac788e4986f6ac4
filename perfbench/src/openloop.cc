#include "openloop.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

#include "spans.hh"

namespace perfbench {

std::string
encodeFrame(const std::string &payload)
{
    const auto n = static_cast<lva::u32>(payload.size());
    std::string out = "LVA1";
    out.push_back(static_cast<char>((n >> 24) & 0xff));
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    out.push_back(static_cast<char>((n >> 8) & 0xff));
    out.push_back(static_cast<char>(n & 0xff));
    return out + payload;
}

namespace {

enum class State { Connecting, Writing, Reading };

struct Conn
{
    int fd = -1;
    std::size_t index = 0;
    State state = State::Connecting;
    std::string out;
    std::size_t written = 0;
    std::string in;
};

void
finish(Conn &c, std::vector<Reply> &replies, const char *error)
{
    Reply &r = replies[c.index];
    r.done = nowSeconds();
    if (error == nullptr) {
        r.answered = true;
        r.response = c.in.substr(8);
    } else {
        r.error = error;
    }
    ::close(c.fd);
    c.fd = -1;
}

/** Advance @p c as far as the socket allows; true once finished. */
bool
step(Conn &c, short revents, std::vector<Reply> &replies)
{
    if (c.state == State::Connecting) {
        if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0)
            return false;
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
            finish(c, replies, "connect failed");
            return true;
        }
        c.state = State::Writing;
    }
    if (c.state == State::Writing) {
        while (c.written < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.written,
                                     c.out.size() - c.written,
                                     MSG_NOSIGNAL);
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                return false;
            if (n <= 0) {
                finish(c, replies, "send failed");
                return true;
            }
            c.written += static_cast<std::size_t>(n);
        }
        c.state = State::Reading;
    }
    for (;;) {
        char buf[65536];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && errno == EAGAIN)
            return false;
        if (n <= 0) {
            finish(c, replies, "connection closed mid-response");
            return true;
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        if (c.in.size() >= 8) {
            if (c.in.compare(0, 4, "LVA1") != 0) {
                finish(c, replies, "bad frame magic");
                return true;
            }
            const auto *h =
                reinterpret_cast<const unsigned char *>(c.in.data());
            const std::size_t len = (std::size_t{h[4]} << 24) |
                                    (std::size_t{h[5]} << 16) |
                                    (std::size_t{h[6]} << 8) | h[7];
            if (c.in.size() >= 8 + len) {
                c.in.resize(8 + len);
                finish(c, replies, nullptr);
                return true;
            }
        }
    }
}

bool
start(Conn &c, lva::u16 port, std::vector<Reply> &replies)
{
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                    0);
    if (c.fd < 0) {
        replies[c.index].done = nowSeconds();
        replies[c.index].error = "socket failed";
        return false;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
        finish(c, replies, "connect failed");
        return false;
    }
    return true;
}

} // namespace

std::vector<Reply>
runOpenLoop(lva::u16 port, const std::vector<Due> &schedule,
            double timeoutS)
{
    std::vector<Reply> replies(schedule.size());
    std::vector<Conn> active;
    std::vector<pollfd> fds;
    std::size_t next = 0;
    while (next < schedule.size() || !active.empty()) {
        double now = nowSeconds();
        while (next < schedule.size() && schedule[next].due <= now) {
            Conn c;
            c.index = next;
            c.out = encodeFrame(*schedule[next].payload);
            replies[next].due = schedule[next].due;
            replies[next].sent = now;
            ++next;
            if (start(c, port, replies))
                active.push_back(std::move(c));
            now = nowSeconds();
        }

        fds.clear();
        for (const Conn &c : active)
            fds.push_back(pollfd{c.fd,
                                 static_cast<short>(
                                     c.state == State::Reading ? POLLIN
                                                               : POLLOUT),
                                 0});
        double wait = 0.05;
        if (next < schedule.size())
            wait = std::min(wait, schedule[next].due - now);
        wait = std::max(wait, 0.0);
        timespec ts;
        ts.tv_sec = static_cast<time_t>(wait);
        ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
        const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready < 0 && errno != EINTR)
            break;

        now = nowSeconds();
        std::vector<Conn> still;
        still.reserve(active.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
            Conn &c = active[i];
            const short revents = ready > 0 ? fds[i].revents : 0;
            if (revents != 0 && step(c, revents, replies))
                continue;
            if (now - replies[c.index].due > timeoutS) {
                finish(c, replies, "timed out");
                continue;
            }
            still.push_back(std::move(c));
        }
        active.swap(still);
    }
    for (Conn &c : active)
        finish(c, replies, "generator stopped");
    return replies;
}

} // namespace perfbench
