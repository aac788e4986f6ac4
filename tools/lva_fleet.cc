/**
 * @file
 * lva_fleet — accept-and-dispatch frontend for a fleet of lva_served
 * workers (docs/serving.md, "The fleet").
 *
 * The frontend binds one localhost port, spawns N lva_served workers
 * on ephemeral ports, and forwards each lva-rpc-v1 frame to the
 * worker chosen by a rendezvous hash of the request's routing key
 * (the workload set for eval/sweep, the op name for control ops) —
 * so every request needing a given workload's golden runs lands on
 * the shard whose cache already holds them. Responses are relayed
 * byte-for-byte: a fleet of any size answers exactly what one
 * lva_served would, which is what serve_smoke.sh pins.
 *
 *   lva_fleet --fleet 3                      # 3 workers, printed port
 *   lva_fleet --fleet 3 --cache 2 --jobs 2   # worker pass-through
 *
 * Options (defaults from the LVA_FLEET_* / LVA_SERVE_* knobs):
 *   --fleet N        worker processes (LVA_FLEET_SIZE)     [2]
 *   --port N         frontend port; 0 = ephemeral          [0]
 *   --served PATH    worker binary (LVA_FLEET_SERVED)
 *                    [lva_served next to this binary]
 *   --workers, --queue, --deadline-ms, --retries, --jobs,
 *   --cache, --seeds, --scale: forwarded to every worker.
 *
 * Supervision: a worker that dies (e.g. an LVA_FAULT abort) is
 * detected on the next request routed to it, respawned on a fresh
 * port, and the request is retried there — the caller just sees a
 * slightly slower, byte-identical response. LVA_FLEET_FAULT arms
 * LVA_FAULT in a worker's *first* incarnation only ("<idx|*>:<spec>"),
 * so an injected kill cannot re-fire in the respawned process.
 *
 * SIGTERM / SIGINT / a `shutdown` request drain: stop accepting,
 * finish in-flight relays, shut every worker down, reap them with a
 * bounded wait (a wedged worker is SIGKILLed after a deadline rather
 * than hanging the drain), exit 0.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/service.hh"
#include "fleet_common.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "util/net.hh"

using namespace lva;

namespace {

/** Signal flag: the accept loop polls it (one relaxed load per tick). */
std::atomic<bool> g_stop{false}; // lva-lint: allow(no-mutable-global)

extern "C" void
onStopSignal(int)
{
    g_stop.store(true);
}

struct Options
{
    u32 fleet = 0;       ///< worker count (0 = LVA_FLEET_SIZE, then 2)
    u16 port = 0;        ///< frontend port (0 = ephemeral)
    std::string served;  ///< worker binary path
    /** Flags forwarded verbatim to every worker. */
    std::vector<std::string> passThrough;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--fleet N] [--port N] [--served PATH]\n"
                 "  [--workers N] [--queue N] [--deadline-ms N]\n"
                 "  [--retries N] [--jobs N] [--cache N] [--seeds N]\n"
                 "  [--scale F]\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    // Strict parse (util/env_knob.hh): "2x" or "-1" warn and keep the
    // default instead of silently becoming 2 or wrapping.
    opt.fleet = static_cast<u32>(envKnobU64("LVA_FLEET_SIZE", 0, 1, 64));
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto count = [&](int &i, u64 lo, u64 hi) {
        const std::optional<u64> v = parseU64(need(i), lo, hi);
        if (!v)
            usage(argv[0]);
        return *v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fleet") {
            opt.fleet = static_cast<u32>(count(i, 1, 64));
        } else if (arg == "--port") {
            opt.port = static_cast<u16>(count(i, 0, 65535));
        } else if (arg == "--served") {
            opt.served = need(i);
        } else if (arg == "--workers" || arg == "--queue" ||
                   arg == "--deadline-ms" || arg == "--retries" ||
                   arg == "--jobs" || arg == "--cache" ||
                   arg == "--seeds" || arg == "--scale") {
            opt.passThrough.push_back(arg);
            opt.passThrough.push_back(need(i));
        } else {
            usage(argv[0]);
        }
    }
    if (opt.fleet == 0)
        opt.fleet = 2;
    if (opt.served.empty())
        opt.served = fleet::defaultServedPath();
    return opt;
}

using fleet::Worker;

/** The supervised fleet: spawn, route, respawn, drain. */
class Fleet
{
  public:
    explicit Fleet(const Options &opt) : opt_(opt), workers_(opt.fleet) {}

    ~Fleet()
    {
        for (Worker &w : workers_) {
            if (w.pipeFd >= 0)
                ::close(w.pipeFd);
        }
    }

    void
    spawnAll()
    {
        for (u32 i = 0; i < workers_.size(); ++i)
            spawn(i);
    }

    /**
     * Forward @p request to the worker owning @p shard and return the
     * response verbatim. Detects a dead worker (connect refused +
     * waitpid says exited), respawns it, and retries there — bounded,
     * so a permanently broken worker binary still fails loudly.
     */
    std::string
    forward(u32 shard, const std::string &request, u64 timeoutMs)
    {
        std::string lastError;
        for (u32 attempt = 0; attempt < 10; ++attempt) {
            u16 port;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                reapAndRespawnLocked(shard);
                port = workers_[shard].port;
            }
            try {
                TcpStream conn =
                    TcpStream::connectTo("127.0.0.1", port, timeoutMs);
                writeFrame(conn, request, timeoutMs);
                std::string response;
                if (readFrame(conn, response, timeoutMs))
                    return response;
                lastError = "worker closed without a response";
            } catch (const NetError &e) {
                lastError = e.what();
            }
            // Either the worker died mid-request (respawned on the
            // next iteration) or it is still booting; a short fixed
            // pause keeps the retry loop polite and deterministic.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        throw NetError("worker " + std::to_string(shard) +
                       " unreachable: " + lastError);
    }

    /** Send @p request to every worker; returns the last response. */
    std::string
    broadcast(const std::string &request, u64 timeoutMs)
    {
        std::string response;
        for (u32 i = 0; i < workers_.size(); ++i) {
            try {
                response = forward(i, request, timeoutMs);
            } catch (const std::exception &e) {
                lva_warn("fleet: broadcast to worker %u: %s", i,
                         e.what());
            }
        }
        return response;
    }

    /**
     * Drain every worker: one best-effort shutdown frame each (when
     * @p sendShutdown; a wedged worker just times the frame out),
     * then a bounded reap that escalates to SIGKILL after
     * @p reapDeadlineMs — so SIGTERM drain always terminates even
     * with a hung worker.
     */
    void
    drainAll(bool sendShutdown, u64 frameTimeoutMs, u64 reapDeadlineMs)
    {
        if (sendShutdown) {
            const std::string req = "{\"schema\":\"lva-rpc-v1\","
                                    "\"op\":\"shutdown\"}";
            for (u32 i = 0; i < workers_.size(); ++i) {
                Worker &w = workers_[i];
                if (w.pid <= 0)
                    continue;
                try {
                    TcpStream conn = TcpStream::connectTo(
                        "127.0.0.1", w.port, frameTimeoutMs);
                    writeFrame(conn, req, frameTimeoutMs);
                    std::string response;
                    readFrame(conn, response, frameTimeoutMs);
                } catch (const std::exception &e) {
                    // Dead or wedged either way; the bounded reap
                    // below settles it.
                    lva_warn("fleet: shutdown frame to worker %u: %s",
                             i, e.what());
                }
            }
        }
        for (u32 i = 0; i < workers_.size(); ++i) {
            Worker &w = workers_[i];
            if (w.pid <= 0)
                continue;
            fleet::reapBounded(w.pid, reapDeadlineMs,
                               "fleet: worker " + std::to_string(i) +
                                   " (pid " +
                                   std::to_string(w.pid) + ")");
            w.pid = -1;
        }
    }

    u32 size() const { return static_cast<u32>(workers_.size()); }

  private:
    /** Spawn worker @p index via the shared fleet helper. */
    void
    spawn(u32 index)
    {
        fleet::spawnWorker(opt_.served, opt_.passThrough, index,
                           workers_[index], "lva_fleet");
    }

    /** If worker @p index exited, log and respawn it. Lock held. */
    void
    reapAndRespawnLocked(u32 index)
    {
        Worker &w = workers_[index];
        if (w.pid <= 0)
            return;
        int st = 0;
        if (::waitpid(w.pid, &st, WNOHANG) == w.pid) {
            lva_warn("fleet: worker %u (pid %d) exited with status "
                     "%d; respawning",
                     index, static_cast<int>(w.pid),
                     WIFEXITED(st) ? WEXITSTATUS(st) : -WTERMSIG(st));
            w.pid = -1;
            spawn(index);
        }
    }

    Options opt_;
    std::mutex mutex_; ///< guards the worker table across relays
    std::vector<Worker> workers_;
};

/** Relay every frame on @p conn to its routed worker. */
void
serveConnection(Fleet &fleet, TcpStream conn, u64 timeoutMs,
                std::atomic<bool> &shutdownSeen)
{
    try {
        std::string request;
        while (readFrame(conn, request, timeoutMs)) {
            const std::string key = fleetRouteKey(request);
            std::string response;
            if (key == "op:shutdown") {
                response = fleet.broadcast(request, timeoutMs);
                if (response.empty())
                    response = busyResponse();
                shutdownSeen.store(true);
                g_stop.store(true);
            } else {
                response = fleet.forward(
                    fleetShard(key, fleet.size()), request, timeoutMs);
            }
            writeFrame(conn, response, timeoutMs);
            if (g_stop.load())
                break;
        }
    } catch (const std::exception &e) {
        lva_warn("fleet: connection: %s", e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    Fleet fleet(opt);
    fleet.spawnAll();

    TcpListener listener(opt.port);

    // Scripts parse this line for the (possibly ephemeral) port, so
    // it must land before the accept loop starts; same contract as
    // lva_served.
    std::printf("lva_fleet: listening on 127.0.0.1:%u (fleet=%u)\n",
                static_cast<unsigned>(listener.port()), fleet.size());
    std::fflush(stdout);

    const u64 kRelayTimeoutMs = 600000;
    std::atomic<bool> shutdownSeen{false};
    std::vector<std::thread> relays;
    while (!g_stop.load()) {
        TcpStream conn;
        try {
            // Short poll so stop signals are observed promptly.
            conn = listener.acceptOne(200);
        } catch (const std::exception &e) {
            lva_warn("fleet: accept: %s", e.what());
            continue;
        }
        if (!conn.valid())
            continue;
        relays.emplace_back([&fleet, &shutdownSeen,
                             c = std::move(conn)]() mutable {
            serveConnection(fleet, std::move(c), kRelayTimeoutMs,
                            shutdownSeen);
        });
    }

    for (std::thread &t : relays)
        t.join();

    // Drain the workers: a relayed `shutdown` already reached them
    // all; a signal-initiated stop still owes them the frame. Either
    // way the reap is bounded, so a wedged worker is SIGKILLed
    // instead of hanging the drain.
    fleet.drainAll(!shutdownSeen.load(), 2000, 2000);

    std::printf("lva_fleet: drained, exiting\n");
    return 0;
}
