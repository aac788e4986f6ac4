/**
 * @file
 * serve_mixed: an lva_served daemon at small scale with a bounded
 * golden cache, driven open loop by a seeded request mix. Set-up
 * starts the daemon and warms its goldens; the timed phase first
 * offers a fixed reference rate (latency percentiles, ok_frac), then
 * climbs a rate ladder to find the highest rate that meets the
 * latency limit. Every eval, sweep and ping response must equal, byte
 * for byte, what an in-process EvalService::handle returns for the
 * same request.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "openloop.hh"
#include "perfbench.hh"
#include "proc.hh"
#include "spans.hh"

#include "eval/service.hh"
#include "util/checkpoint.hh"

namespace perfbench {

namespace {

constexpr double kScale = 0.05;
constexpr u32 kHandlers = 2;
constexpr u32 kCache = 4;          ///< goldens: 3 warm + 1 cold slot
constexpr double kRefRate = 50.0;  ///< requests/s of the fixed rate
constexpr double kSloS = 0.050;    ///< latency limit on the p90
constexpr double kTimeoutS = 10.0; ///< a request this late has failed
constexpr u32 kWindows = 5;        ///< percentile slices of a phase
constexpr u32 kPhaseMin = kWindows * 100; ///< requests in any phase

enum Kind { kWarm, kHeavy, kPing, kStats, kKinds };

/** Per block of 20 requests: 17 warm evals, 1 heavy, 1 ping, 1 stats.
 *  Heavy requests (cold evals and sweeps, alternating by block) stay
 *  at 5%, so the p90 falls inside the warm-eval class instead of on
 *  the boundary between two classes. */
const std::vector<u32> kBlock{17, 1, 1, 1};

struct Body
{
    std::string name;    ///< reference key
    std::string request; ///< payload sent
};

std::vector<Body>
warmBodies()
{
    std::vector<Body> out;
    for (const char *w : {"canneal", "fluidanimate", "x264"}) {
        for (const auto &[tag, cfg] :
             std::vector<std::pair<std::string, std::string>>{
                 {"ghb0", "{\"ghb\":0}"},
                 {"ghb2", "{\"ghb\":2}"},
                 {"deg4", "{\"degree\":4}"},
                 {"lvp", "{\"mode\":\"lvp\"}"}})
            out.push_back(Body{std::string("eval/") + w + "/" + tag,
                               std::string("{\"op\":\"eval\",\"workload\":"
                                           "\"") +
                                   w + "\",\"config\":" + cfg + "}"});
    }
    return out;
}

std::vector<Body>
heavyBodies()
{
    std::vector<Body> out;
    for (const char *w : {"blackscholes", "ferret", "swaptions"})
        out.push_back(Body{std::string("eval/") + w + "/ghb1",
                           std::string("{\"op\":\"eval\",\"workload\":\"") +
                               w + "\",\"config\":{\"ghb\":1}}"});
    out.push_back(Body{
        "sweep/a",
        "{\"op\":\"sweep\",\"driver\":\"serve_mixed\",\"points\":["
        "{\"label\":\"c-g1\",\"workload\":\"canneal\","
        "\"config\":{\"ghb\":1}},"
        "{\"label\":\"x-d16\",\"workload\":\"x264\","
        "\"config\":{\"degree\":16}},"
        "{\"label\":\"f-pf\",\"workload\":\"fluidanimate\","
        "\"config\":{\"mode\":\"prefetch\"}}]}"});
    out.push_back(Body{
        "sweep/b",
        "{\"op\":\"sweep\",\"driver\":\"serve_mixed\",\"points\":["
        "{\"label\":\"f-g4\",\"workload\":\"fluidanimate\","
        "\"config\":{\"ghb\":4}},"
        "{\"label\":\"c-lvp\",\"workload\":\"canneal\","
        "\"config\":{\"mode\":\"lvp\"}},"
        "{\"label\":\"x-g2\",\"workload\":\"x264\","
        "\"config\":{\"ghb\":2}}]}"});
    return out;
}

const Body kPingBody{"ping", "{\"op\":\"ping\"}"};
const Body kStatsBody{"stats", "{\"op\":\"stats\"}"};

/** The seeded request sequence: body per request. */
std::vector<const Body *>
requestMix(u64 seed, u64 first, u64 count, const std::vector<Body> &warm,
           const std::vector<Body> &heavy)
{
    // The schedule is drawn for [0, first + count) and sliced, so
    // the ladder continues the reference phase's sequence.
    const std::vector<u32> kinds =
        blockSchedule(seed, kBlock, first + count);
    std::vector<const Body *> out;
    u64 seen[kKinds] = {};
    const u64 blockLen = 20;
    for (u64 i = 0; i < kinds.size(); ++i) {
        const u64 n = seen[kinds[i]]++;
        const Body *b = nullptr;
        switch (kinds[i]) {
          case kWarm:
            b = &warm[(n + seed) % warm.size()];
            break;
          case kHeavy: {
            // Even blocks send a cold eval, odd blocks a sweep.
            const u64 block = i / blockLen;
            const u64 colds = 3;
            b = block % 2 == 0
                    ? &heavy[(n / 2 + seed) % colds]
                    : &heavy[colds + (n / 2 + seed) % (heavy.size() -
                                                       colds)];
            break;
          }
          case kPing:
            b = &kPingBody;
            break;
          default:
            b = &kStatsBody;
            break;
        }
        if (i >= first)
            out.push_back(b);
    }
    return out;
}

double
statValue(const std::string &statsResponse, const std::string &path)
{
    const lva::JsonValue doc = lva::parseJson(statsResponse);
    const lva::JsonValue *entry = doc.at("serve").find(path);
    return entry ? entry->at("value").asDouble() : 0.0;
}

/** Outcome of one open-loop phase, checked against the references. */
struct Phase
{
    std::vector<Reply> replies;
    std::vector<const Body *> bodies;
    /** ms from the due time; a refused request counts as kTimeoutS. */
    std::vector<double> latency;
    u64 ok = 0;
    u64 refused = 0; ///< busy responses and failed connections
    u64 wrong = 0;   ///< answered, but not with the reference bytes

    /** Median over kWindows consecutive slices of each one's @p p. */
    std::optional<double>
    percentile(double p) const
    {
        return windowedPercentile(latency, p, kWindows);
    }

    /**
     * The latency limit is met and the queue is not growing: nothing
     * refused or wrong, the p90 within the limit, and the last slice
     * of requests still answered within it at the median.
     */
    bool
    meetsSlo() const
    {
        const auto q = percentile(0.9);
        if (!q || refused > 0 || wrong > 0 || *q > kSloS * 1e3)
            return false;
        const std::vector<double> last(
            latency.end() - static_cast<long>(latency.size() / kWindows),
            latency.end());
        return median(last) <= kSloS * 1e3;
    }
};

Phase
runPhase(lva::u16 port, double rate, const std::vector<const Body *> &bodies,
         const std::map<std::string, std::string> &expected)
{
    Phase ph;
    ph.bodies = bodies;
    std::vector<Due> schedule;
    const double t0 = nowSeconds() + 0.02;
    for (std::size_t i = 0; i < bodies.size(); ++i)
        schedule.push_back(Due{t0 + static_cast<double>(i) / rate,
                               &bodies[i]->request});
    ph.replies = runOpenLoop(port, schedule, kTimeoutS);
    for (std::size_t i = 0; i < ph.replies.size(); ++i) {
        const Reply &r = ph.replies[i];
        const Body &b = *bodies[i];
        bool good = false;
        if (!r.answered || r.response.find("\"busy\":true") !=
                               std::string::npos) {
            ++ph.refused;
        } else {
            good = &b == &kStatsBody
                       ? r.response.find("\"ok\":true") != std::string::npos
                       : r.response == expected.at(b.name);
            good ? ++ph.ok : ++ph.wrong;
        }
        ph.latency.push_back(good ? r.latency() * 1e3 : kTimeoutS * 1e3);
    }
    return ph;
}

/** Simulated instructions of the configured runs @p b asks for. */
double
requestInstructions(lva::EvalService &local, const Body &b)
{
    const lva::JsonValue req = lva::parseJson(b.request);
    const std::string op = req.at("op").asString();
    lva::Evaluator &eval = local.evaluator();
    if (op == "eval")
        return eval
            .evaluate(req.at("workload").asString(),
                      lva::configFromJson(req.at("config")))
            .instructions;
    double total = 0.0;
    if (op == "sweep")
        for (const lva::SweepPoint &p :
             lva::sweepPointsFromJson(req.at("points")))
            total += eval.evaluate(p.workload, p.config).instructions;
    return total;
}

/**
 * The daemon's simulation rate as its clients see it: simulated
 * instructions the reference phase asked for, over the time its
 * requests spent from send to response. Each distinct request
 * contributes its median round trip times its count, so a burst on
 * the host moves a few samples, not the figure.
 */
double
servedMinstrPerS(lva::EvalService &local, const Phase &ph)
{
    std::map<const Body *, std::vector<double>> rtt;
    for (std::size_t i = 0; i < ph.replies.size(); ++i)
        if (ph.replies[i].answered)
            rtt[ph.bodies[i]].push_back(ph.replies[i].done -
                                        ph.replies[i].sent);
    double instr = 0.0, seconds = 0.0;
    for (const auto &[body, samples] : rtt) {
        const auto n = static_cast<double>(samples.size());
        instr += n * requestInstructions(local, *body);
        seconds += n * median(samples);
    }
    return instr / seconds / 1e6;
}

std::vector<std::string>
daemonArgs()
{
    return {"--workers", std::to_string(kHandlers), "--jobs", "1",
            "--queue", "16", "--cache", std::to_string(kCache),
            "--seeds", "1", "--scale", std::to_string(kScale)};
}

} // namespace

RunResult
runServe(const RunOptions &opt, Reference &ref)
{
    const std::vector<Body> warm = warmBodies();
    const std::vector<Body> heavy = heavyBodies();

    // The in-process reference: the same service the daemon runs,
    // answering each distinct request once.
    lva::ServeOptions so;
    so.workers = kHandlers;
    so.jobs = 1;
    so.cacheCap = kCache;
    lva::EvalService local(1, kScale, so);
    RunResult out;
    std::map<std::string, std::string> expected;
    double goldenBuildS = 0.0;
    for (const char *w : {"canneal", "fluidanimate", "x264"}) {
        const double t0 = nowSeconds();
        local.evaluator().evaluatePrecise(w);
        goldenBuildS += nowSeconds() - t0;
    }
    auto addExpected = [&](const Body &b) {
        expected[b.name] = local.handle(b.request);
        ++out.attempted;
        if (!ref.check("serve_mixed/" + b.name, expected[b.name]))
            ++out.failed;
    };
    for (const Body &b : warm)
        addExpected(b);
    for (const Body &b : heavy)
        addExpected(b);
    addExpected(kPingBody);

    // Set-up: start the daemon and warm its goldens; the last one
    // started serves the timed phase.
    std::vector<double> setup;
    std::unique_ptr<Daemon> daemon;
    for (u32 rep = 0; rep < kSetupReps; ++rep) {
        if (daemon)
            daemon->stop();
        daemon.reset();
        const double t0 = nowSeconds();
        daemon = std::make_unique<Daemon>(opt.bindir, daemonArgs(),
                                          opt.workdir + "/served.log");
        for (const Body &b : warm) {
            ++out.attempted;
            if (rpc(daemon->port(), b.request) != expected[b.name])
                ++out.failed;
        }
        setup.push_back(nowSeconds() - t0);
    }
    const lva::u16 port = daemon->port();

    // Reference rate.
    const double refSeconds = opt.trace ? opt.seconds * 0.7
                                        : opt.seconds * 0.45;
    const u64 refCount =
        std::max<u64>(kPhaseMin, static_cast<u64>(kRefRate * refSeconds));
    const std::string before = rpc(port, kStatsBody.request);
    const Phase ref0 = runPhase(
        port, kRefRate, requestMix(opt.seed, 0, refCount, warm, heavy),
        expected);
    const std::string after = rpc(port, kStatsBody.request);
    // Nothing may be refused at the reference rate; the ladder below
    // overloads the daemon on purpose, so there only wrong bytes fail.
    out.attempted += ref0.replies.size();
    out.failed += ref0.wrong + ref0.refused;
    const double peakRss = daemon->peakRssMb();

    if (!opt.trace) {
        // Rate ladder from half the capacity the reference phase
        // suggests (handlers / mean service time): 15% per step up
        // until a step misses the limit (down while none has passed),
        // then three bisections of the bracket.
        double meanS = 0.0;
        for (const Reply &r : ref0.replies)
            meanS += r.done - r.sent;
        meanS /= static_cast<double>(ref0.replies.size());
        double rate = 0.5 * kHandlers / meanS;
        double pass = 0.0, fail = 0.0;
        u64 offset = refCount;
        auto tryOnce = [&](double r) {
            const u64 n = std::max<u64>(kPhaseMin, static_cast<u64>(r));
            const Phase ph = runPhase(
                port, r, requestMix(opt.seed, offset, n, warm, heavy),
                expected);
            offset += n;
            out.attempted += ph.replies.size();
            out.failed += ph.wrong;
            return ph.meetsSlo();
        };
        // A rate fails only when a second try fails too: a one-second
        // stall on the host must not end the climb early.
        auto tryRate = [&](double r) { return tryOnce(r) || tryOnce(r); };
        for (u32 step = 0; (pass == 0.0 || fail == 0.0) && step < 24;
             ++step) {
            if (tryRate(rate)) {
                pass = rate;
                rate *= 1.15;
            } else {
                fail = rate;
                rate /= 1.15;
            }
        }
        for (int i = 0; i < 3 && pass > 0.0 && fail > 0.0; ++i) {
            const double mid = std::sqrt(pass * fail);
            (tryRate(mid) ? pass : fail) = mid;
        }
        if (pass == 0.0 || fail == 0.0)
            throw std::runtime_error("serve_mixed: the rate ladder found "
                                     "no bracket");

        const auto p50 = ref0.percentile(0.5);
        const auto p90 = ref0.percentile(0.9);
        if (!p50 || !p90)
            throw std::runtime_error("serve_mixed: too few requests for "
                                     "the latency percentiles");
        out.put("setup_s", median(setup), "s");
        out.put("sim_minstr_per_s", servedMinstrPerS(local, ref0),
                "Minstr/s");
        out.put("peak_rss_mb", peakRss, "MB");
        out.put("req_p50_ms", *p50, "ms");
        out.put("req_p90_ms", *p90, "ms");
        out.put("max_rps_under_slo", pass, "1/s");
        out.put("ok_frac",
                static_cast<double>(ref0.ok) /
                    static_cast<double>(ref0.replies.size()),
                "frac");
        daemon->stop();
        return out;
    }

    // Traced run: attribute the warm-eval round trip.
    std::vector<double> ping, warmRtt, handle, parse;
    std::vector<double> late;
    for (std::size_t i = 0; i < ref0.replies.size(); ++i) {
        const Reply &r = ref0.replies[i];
        late.push_back(r.lateness() * 1e3);
        if (ref0.bodies[i] == &kPingBody)
            ping.push_back((r.done - r.sent) * 1e3);
        else if (std::any_of(warm.begin(), warm.end(),
                             [&](const Body &b) {
                                 return &b == ref0.bodies[i];
                             }))
            warmRtt.push_back((r.done - r.sent) * 1e3);
        else if (ref0.bodies[i]->name.rfind("sweep/", 0) == 0 &&
                 r.answered &&
                 r.response == expected.at(ref0.bodies[i]->name)) {
            const lva::JsonValue doc = lva::parseJson(r.response);
            const std::string &exported = doc.at("export").asString();
            for (int k = 0; k < 5; ++k) {
                const double t0 = nowSeconds();
                lva::parseJson(exported);
                parse.push_back((nowSeconds() - t0) * 1e3);
            }
        }
    }
    for (int k = 0; k < 5; ++k) {
        for (const Body &b : warm) {
            const double t0 = nowSeconds();
            local.handle(b.request);
            handle.push_back((nowSeconds() - t0) * 1e3);
        }
    }
    const double hits = statValue(after, "serve.cache.hits") -
                        statValue(before, "serve.cache.hits");
    const double misses = statValue(after, "serve.cache.misses") -
                          statValue(before, "serve.cache.misses");
    out.put("util.rpc_ping_ms", median(ping), "ms");
    out.put("eval.handle_ms", median(handle), "ms");
    out.put("util.rpc_overhead_ms", median(warmRtt) - median(handle),
            "ms");
    out.put("util.json_parse_ms", parse.empty() ? 0.0 : median(parse),
            "ms");
    out.put("eval.golden_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
    out.put("eval.golden_builds",
            statValue(after, "serve.cache.builds") -
                statValue(before, "serve.cache.builds"),
            "count");
    out.put("eval.golden_evictions",
            statValue(after, "serve.cache.evictions") -
                statValue(before, "serve.cache.evictions"),
            "count");
    out.put("serve.busy_frac",
            static_cast<double>(ref0.refused) /
                static_cast<double>(ref0.replies.size()),
            "frac");
    const auto lateP90 = tailPercentile(late, 0.9);
    out.put("gen.late_ms_p90", lateP90 ? *lateP90 : 0.0, "ms");
    out.put("eval.golden_build_ms", goldenBuildS * 1e3, "ms");
    daemon->stop();
    return out;
}

} // namespace perfbench
