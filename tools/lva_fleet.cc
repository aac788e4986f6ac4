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
 *   --cache, --seeds, --scale: checked against lva_served's ranges
 *   (a bad value exits 2 before any worker is forked), then
 *   forwarded to every worker.
 *
 * Supervision: a worker that dies (e.g. an LVA_FAULT abort) is
 * detected on the next request routed to it, respawned on a fresh
 * port, and the request is retried there — the caller just sees a
 * slightly slower, byte-identical response. LVA_FLEET_FAULT arms
 * LVA_FAULT in a worker's *first* incarnation only ("<idx|*>:<spec>"),
 * so an injected kill cannot re-fire in the respawned process.
 *
 * SIGTERM / SIGINT / a `shutdown` request drain: wake the accept
 * loop, finish in-flight relays, shut every worker down, reap each
 * on its stdout pipe's EOF (a wedged worker is SIGKILLed after a
 * deadline rather than hanging the drain), exit 0.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <list>
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

/**
 * The frontend's listener, for the signal handler. A mutable global
 * is the only channel into a signal handler; wake() is one write(2),
 * so the handler stays async-signal-safe.
 */
TcpListener *g_listener = nullptr; // lva-lint: allow(no-mutable-global)

/** Signal flag: the accept loop checks it after every wake. */
std::atomic<bool> g_stop{false}; // lva-lint: allow(no-mutable-global)

extern "C" void
onStopSignal(int)
{
    g_stop.store(true);
    if (g_listener)
        g_listener->wake();
}

struct Options
{
    u32 fleet = 0;       ///< worker count (0 = LVA_FLEET_SIZE, then 2)
    u16 port = 0;        ///< frontend port (0 = ephemeral)
    std::string served;  ///< worker binary path
    /** Flags forwarded verbatim to every worker, validated here. */
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
    fleet::ServedFlags worker;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fleet") {
            opt.fleet = static_cast<u32>(count(i, 1, 64));
        } else if (arg == "--port") {
            opt.port = static_cast<u16>(count(i, 0, 65535));
        } else if (arg == "--served") {
            opt.served = need(i);
        } else {
            // A worker flag, forwarded once it checks out.
            const char *value = need(i);
            if (!fleet::applyServedFlag(arg, value, worker))
                usage(argv[0]);
            opt.passThrough.push_back(arg);
            opt.passThrough.push_back(value);
        }
    }
    if (opt.fleet == 0)
        opt.fleet = 2;
    if (opt.served.empty())
        opt.served = fleet::defaultServedPath();
    return opt;
}

/** Per-frame deadline on a relayed connection and its worker. */
constexpr u64 kRelayTimeoutMs = 600000;

/**
 * Forward @p request to the worker owning @p shard and return the
 * response verbatim. A worker found dead is respawned and the
 * request retried there — bounded, so a permanently broken worker
 * binary still fails loudly.
 */
std::string
forward(fleet::Supervisor &workers, u32 shard, const std::string &request)
{
    std::string lastError;
    for (u32 attempt = 0; attempt < 10; ++attempt) {
        const u16 port = workers.pick({shard}).port;
        try {
            return fleet::roundTrip(port, request, kRelayTimeoutMs);
        } catch (const NetError &e) {
            lastError = e.what();
        }
        workers.noteFailure(shard);
    }
    throw NetError("worker " + std::to_string(shard) +
                   " unreachable: " + lastError);
}

/** Relay every frame on @p conn to its routed worker. */
void
serveConnection(fleet::Supervisor &workers, TcpListener &listener,
                TcpStream conn, std::atomic<bool> &shutdownSeen)
{
    try {
        std::string request;
        while (readFrame(conn, request, kRelayTimeoutMs)) {
            const std::string key = fleetRouteKey(request);
            std::string response;
            if (key == "op:shutdown") {
                // Broadcast; the client gets the last worker's reply.
                for (u32 i = 0; i < workers.size(); ++i) {
                    try {
                        response = forward(workers, i, request);
                    } catch (const std::exception &e) {
                        lva_warn("lva_fleet: shutdown to worker %u: %s", i,
                                 e.what());
                    }
                }
                if (response.empty())
                    response = busyResponse();
                shutdownSeen.store(true);
                g_stop.store(true);
                listener.wake();
            } else {
                response = forward(
                    workers, fleetShard(key, workers.size()), request);
            }
            writeFrame(conn, response, kRelayTimeoutMs);
            if (g_stop.load())
                break;
        }
    } catch (const std::exception &e) {
        lva_warn("lva_fleet: connection: %s", e.what());
    }
}

/** One relay thread and the connection it serves; the thread sets
 *  `done` as its last act. */
struct Relay
{
    TcpStream conn;
    std::thread thread;
    std::atomic<bool> done{false};
};

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

    fleet::Supervisor workers(opt.served, opt.passThrough, opt.fleet,
                              "lva_fleet");
    workers.spawnAll();

    TcpListener listener(opt.port);
    g_listener = &listener;

    // Scripts parse this line for the (possibly ephemeral) port, so
    // it must land before the accept loop starts; same contract as
    // lva_served.
    std::printf("lva_fleet: listening on 127.0.0.1:%u (fleet=%u)\n",
                static_cast<unsigned>(listener.port()), workers.size());
    std::fflush(stdout);

    std::atomic<bool> shutdownSeen{false};
    std::list<Relay> relays;
    while (!g_stop.load()) {
        TcpStream conn;
        try {
            conn = listener.acceptOne(0); // until a connection or wake
        } catch (const std::exception &e) {
            lva_warn("lva_fleet: accept: %s", e.what());
            continue;
        }
        // Join finished relays as connections arrive, so a long-lived
        // fleet does not keep a thread stack per connection it served.
        relays.remove_if([](Relay &r) {
            const bool done = r.done.load();
            if (done)
                r.thread.join();
            return done;
        });
        if (!conn.valid())
            continue; // woken: re-check the stop flag
        Relay &relay = relays.emplace_back();
        relay.conn = std::move(conn);
        relay.thread = std::thread([&, r = &relay] {
            serveConnection(workers, listener, std::move(r->conn),
                            shutdownSeen);
            r->done.store(true);
        });
    }

    for (Relay &relay : relays)
        relay.thread.join();
    g_listener = nullptr;

    // Drain the workers: a relayed `shutdown` already reached them
    // all; a signal-initiated stop still owes them the frame. Either
    // way the reap is bounded, so a wedged worker is SIGKILLed
    // instead of hanging the drain.
    workers.drainAll(!shutdownSeen.load());

    std::printf("lva_fleet: drained, exiting\n");
    return 0;
}
