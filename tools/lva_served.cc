/**
 * @file
 * lva_served — the long-lived evaluation daemon (docs/serving.md).
 *
 * Binds a localhost TCP port, speaks the length-prefixed lva-rpc-v1
 * protocol, and serves eval/sweep requests from one shared Evaluator +
 * SweepRunner, so golden (precise) baseline runs are paid once per
 * (workload, seed) across every request instead of once per bench
 * invocation:
 *
 *   lva_served --port 7777
 *   lva_served --port 0 --workers 4        # ephemeral port, printed
 *   LVA_SEEDS=1 LVA_SCALE=0.05 lva_served  # quick smoke daemon
 *
 * Options (defaults from the LVA_SERVE_* knobs, see README):
 *   --port N         TCP port on 127.0.0.1; 0 = ephemeral [0]
 *   --workers N      connection-handler threads           [2]
 *   --queue N        waiting connections before `busy`    [16]
 *   --deadline-ms N  per-connection wire deadline         [10000]
 *   --retries N      extra isolated attempts per request  [0]
 *   --jobs N         sweep worker threads (0 = LVA_JOBS)  [0]
 *   --cache N        golden-cache entries (0 = unbounded) [0]
 *   --seeds N        evaluator seeds (0 = LVA_SEEDS)      [0]
 *   --scale F        workload scale (0 = LVA_SCALE)       [0]
 *
 * Values are strict decimals in the matching knob's range; anything
 * else exits 2.
 *
 * SIGTERM / SIGINT drain: the daemon stops accepting, finishes every
 * in-flight request, and exits 0. A `shutdown` request does the same.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "eval/service.hh"
#include "fleet_common.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"

using namespace lva;

namespace {

/**
 * The loop the signal handler must reach. A mutable global is the
 * only channel into a signal handler; requestStop() is one lock-free
 * atomic store and one write(2), so the handler stays
 * async-signal-safe.
 */
ServeLoop *g_loop = nullptr; // lva-lint: allow(no-mutable-global)

extern "C" void
onStopSignal(int)
{
    if (g_loop)
        g_loop->requestStop();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--port N] [--workers N] [--queue N]\n"
                 "  [--deadline-ms N] [--retries N] [--jobs N]\n"
                 "  [--cache N] [--seeds N] [--scale F]\n",
                 argv0);
    std::exit(2);
}

/** The flag parse is shared with the fleet frontends, which check
 *  what they forward to workers the same way. */
fleet::ServedFlags
parse(int argc, char **argv)
{
    fleet::ServedFlags opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port") {
            const std::optional<u64> port = parseU64(need(i), 0, 65535);
            if (!port)
                usage(argv[0]);
            opt.serve.port = static_cast<u16>(*port);
        } else if (!fleet::applyServedFlag(arg, need(i), opt)) {
            usage(argv[0]);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const fleet::ServedFlags opt = parse(argc, argv);

    EvalService service(opt.seeds, opt.scale, opt.serve);
    ServeLoop loop(service, opt.serve);
    g_loop = &loop;

    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    // Scripts parse this line for the (possibly ephemeral) port, so
    // it must land before the blocking serve loop starts.
    std::printf("lva_served: listening on 127.0.0.1:%u "
                "(jobs=%u seeds=%u scale=%.2f)\n",
                static_cast<unsigned>(loop.port()), service.jobs(),
                service.evaluator().seeds(),
                service.evaluator().scale());
    std::fflush(stdout);

    loop.run();
    g_loop = nullptr;

    std::printf("lva_served: drained, exiting\n");
    return 0;
}
