/**
 * @file
 * lvabench: runs one benchmark workload and prints its result line.
 *
 *   lvabench --workload NAME --seed N --seconds S --trace 0|1
 *            --workdir DIR --bindir DIR --reference FILE
 *   lvabench --workload NAME --emit-reference ...   (regenerate digests)
 *
 * Before the result it prints one "# host ..." line recording nproc,
 * the busy threads the workload runs and the 1-minute load average at
 * the start and end of the run, so a run disturbed by neighbours can
 * be picked out. Exit status: 0 when every output matched its
 * reference, 1 when one did not (the result line says which counts),
 * 2 on a usage error, a refused configuration or a failed run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "perfbench.hh"

extern char **environ;

using namespace perfbench;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: lvabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --bindir DIR\n"
                 "                (--reference FILE | --emit-reference)\n");
    std::exit(2);
}

/** Drop every LVA_* knob so the caller's environment cannot change
 *  what is measured; the workloads pin what they need explicitly. */
void
clearLvaEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "LVA_", 4) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
    ::setenv("LVA_JOBS", "1", 1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, workdir, bindir, reference;
    RunOptions opt;
    bool emit = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            workload = need();
        else if (arg == "--seed")
            opt.seed = std::strtoull(need().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(need().c_str());
        else if (arg == "--trace")
            opt.trace = need() == "1";
        else if (arg == "--workdir")
            opt.workdir = need();
        else if (arg == "--bindir")
            opt.bindir = need();
        else if (arg == "--reference")
            reference = need();
        else if (arg == "--emit-reference")
            emit = true;
        else
            usage();
    }
    if (workload.empty() || opt.workdir.empty() || opt.bindir.empty() ||
        (reference.empty() && !emit) || opt.seconds < 0)
        usage();

    clearLvaEnvironment();
    try {
        const u32 busy = busyThreads(workload);
        checkCoreBudget(workload, busy);
        Reference ref =
            emit ? Reference::collecting() : Reference::load(reference);
        const double loadStart = loadAverage1();
        RunResult result;
        if (workload == "phase1_sweep")
            result = runPhase1(opt, ref);
        else if (workload == "phase2_replay")
            result = runPhase2(opt, ref);
        else if (workload == "serve_mixed")
            result = runServe(opt, ref);
        else if (workload == "coord_sweep")
            result = runCoord(opt, ref);
        else
            usage();
        if (emit) {
            std::fputs(Reference::render(ref.emitted()).c_str(), stdout);
            return 0;
        }
        std::printf("# host nproc=%u busy_threads=%u "
                    "loadavg_start=%.2f loadavg_end=%.2f\n",
                    cpuCount(), busy, loadStart, loadAverage1());
        std::printf("%s\n", renderResult(result, opt.trace).c_str());
        std::fflush(stdout);
        return result.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lvabench: %s: %s\n", workload.c_str(),
                     e.what());
        return 2;
    }
}
