/**
 * @file
 * Tests of the benchmark's own machinery: schedules, percentiles,
 * open-loop timing, span self time, the core budget guard, and that a
 * corrupted reference digest fails a run.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "openloop.hh"
#include "perfbench.hh"
#include "spans.hh"

#include "util/checkpoint.hh"

using namespace perfbench;

TEST(Schedule, SameSeedSameOrderOtherSeedOther)
{
    EXPECT_EQ(unitOrder(7, 3, 56), unitOrder(7, 3, 56));
    EXPECT_NE(unitOrder(7, 3, 56), unitOrder(8, 3, 56));
    EXPECT_NE(unitOrder(7, 3, 56), unitOrder(7, 4, 56));
    std::vector<u32> sorted = unitOrder(7, 3, 56);
    std::sort(sorted.begin(), sorted.end());
    for (u32 i = 0; i < 56; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Schedule, BlocksKeepTheMixExactForEverySeed)
{
    const std::vector<u32> block{17, 1, 1, 1};
    EXPECT_EQ(blockSchedule(5, block, 400), blockSchedule(5, block, 400));
    EXPECT_NE(blockSchedule(5, block, 400), blockSchedule(6, block, 400));
    for (u64 seed : {1, 2, 3}) {
        const std::vector<u32> s = blockSchedule(seed, block, 400);
        for (std::size_t b = 0; b < 400; b += 20) {
            u32 counts[4] = {};
            for (std::size_t i = b; i < b + 20; ++i)
                ++counts[s[i]];
            EXPECT_EQ(counts[0], 17u);
            EXPECT_EQ(counts[1], 1u);
            EXPECT_EQ(counts[2], 1u);
            EXPECT_EQ(counts[3], 1u);
        }
    }
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    EXPECT_FALSE(tailPercentile(v, 0.9).has_value()); // 9 beyond
    v.push_back(100);
    ASSERT_TRUE(tailPercentile(v, 0.9).has_value()); // 10 beyond
    EXPECT_EQ(*tailPercentile(v, 0.9), 90.0);
    EXPECT_EQ(*tailPercentile(v, 0.5), 50.0);
    EXPECT_FALSE(tailPercentile({1, 2, 3}, 0.5).has_value());
}

TEST(Percentile, WindowedPercentileIgnoresABurstInOneWindow)
{
    std::vector<double> v(500, 1.0);
    for (std::size_t i = 200; i < 300; ++i)
        v[i] = 100.0; // one window of five is all stall
    EXPECT_EQ(*tailPercentile(v, 0.9), 100.0);
    EXPECT_EQ(*windowedPercentile(v, 0.9, 5), 1.0);
    EXPECT_FALSE(windowedPercentile(v, 0.9, 6).has_value()); // 83 a window
}

TEST(Percentile, MedianOfAnEvenCountIsTheMiddleMean)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2, 4}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
}

TEST(Spans, SelfTimeIsDurationMinusChildCoverage)
{
    SpanRecorder rec(true);
    const int parent = rec.add("p", 0.0, 10.0, -1);
    rec.add("a", 1.0, 3.0, parent);
    rec.add("b", 2.0, 5.0, parent);  // overlaps a: [1, 5] covered once
    rec.add("c", 7.0, 8.0, parent);
    rec.add("d", 9.5, 12.0, parent); // clipped to [9.5, 10]
    const int other = rec.add("q", 20.0, 21.0, -1);
    rec.add("e", 20.0, 20.25, other);
    EXPECT_DOUBLE_EQ(rec.selfTime(parent), 10.0 - (4.0 + 1.0 + 0.5));
    EXPECT_DOUBLE_EQ(rec.selfTime(other), 0.75);
    EXPECT_DOUBLE_EQ(rec.topLevelTime(), 11.0);
}

TEST(Spans, NestedScopesRecordParents)
{
    SpanRecorder rec(true);
    {
        ScopedSpan outer(rec, "outer");
        ScopedSpan inner(rec, "inner");
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    SpanRecorder off(false);
    {
        ScopedSpan s(off, "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

namespace {

/** A one-handler server that answers each frame after @p delayMs. */
class SlowServer
{
  public:
    explicit SlowServer(int delayMs) : delayMs_(delayMs)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ::bind(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
        socklen_t len = sizeof(addr);
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len);
        port_ = ntohs(addr.sin_port);
        ::listen(fd_, 64);
        thread_ = std::thread([this] { serve(); });
    }

    ~SlowServer()
    {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        thread_.join();
    }

    SlowServer(const SlowServer &) = delete;
    SlowServer &operator=(const SlowServer &) = delete;

    lva::u16 port() const { return port_; }

  private:
    void
    serve()
    {
        for (;;) {
            const int c = ::accept(fd_, nullptr, nullptr);
            if (c < 0)
                return;
            char buf[4096];
            std::string in;
            while (in.size() < 8 ||
                   in.size() < 8 + static_cast<std::size_t>(
                                       static_cast<unsigned char>(in[7]))) {
                const ssize_t n = ::recv(c, buf, sizeof(buf), 0);
                if (n <= 0)
                    break;
                in.append(buf, static_cast<std::size_t>(n));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(delayMs_));
            const std::string reply = encodeFrame("{\"ok\":true}");
            ::send(c, reply.data(), reply.size(), MSG_NOSIGNAL);
            ::close(c);
        }
    }

    int delayMs_;
    int fd_ = -1;
    lva::u16 port_ = 0;
    std::thread thread_;
};

} // namespace

TEST(OpenLoop, LatencyCountsFromTheDueTimeAndLatenessIsRecorded)
{
    SlowServer server(40);
    const std::string body = "{\"op\":\"ping\"}";
    const double t0 = nowSeconds();
    // Three requests due together: a one-handler server answers them
    // one after another, so the third waits for the first two. The
    // fourth was due 50 ms before the generator started.
    const std::vector<Due> schedule{{t0 - 0.05, &body},
                                    {t0 + 0.01, &body},
                                    {t0 + 0.01, &body},
                                    {t0 + 0.01, &body}};
    const std::vector<Reply> r = runOpenLoop(server.port(), schedule, 5.0);
    ASSERT_EQ(r.size(), 4u);
    for (const Reply &x : r) {
        ASSERT_TRUE(x.answered) << x.error;
        EXPECT_EQ(x.response, "{\"ok\":true}");
        EXPECT_GE(x.lateness(), 0.0);
    }
    EXPECT_GE(r[0].lateness(), 0.05);
    EXPECT_GE(r[0].latency(), 0.05 + 0.04);
    // Served in arrival order behind the first: the k-th waits k+1
    // service times, all charged from its own due time.
    std::vector<double> later{r[1].latency(), r[2].latency(),
                              r[3].latency()};
    std::sort(later.begin(), later.end());
    EXPECT_GE(later[0], 0.04);
    EXPECT_GE(later[1], 0.08);
    EXPECT_GE(later[2], 0.12);
}

TEST(CoreBudget, RefusesMoreBusyThreadsThanCpus)
{
    EXPECT_NO_THROW(checkCoreBudget("w", 1));
    EXPECT_THROW(checkCoreBudget("w", cpuCount() + 1), std::runtime_error);
    EXPECT_LE(busyThreads("serve_mixed"), 3u);
}

TEST(Result, LineHasExactlyTheResultKeys)
{
    RunResult r;
    r.attempted = 4;
    r.failed = 0;
    for (const MetricDef &d : endToEndMetrics())
        r.put(d.name, 1.5, d.unit);
    const lva::JsonValue doc = lva::parseJson(renderResult(r, false));
    ASSERT_EQ(doc.members.size(), 4u);
    EXPECT_EQ(doc.members[0].first, "correct");
    EXPECT_EQ(doc.members[1].first, "attempted");
    EXPECT_EQ(doc.members[2].first, "failed");
    EXPECT_EQ(doc.at("metrics").members.size(), endToEndMetrics().size());
    r.metrics.pop_back();
    EXPECT_THROW(renderResult(r, false), std::runtime_error);
    const lva::JsonValue traced = lva::parseJson(renderResult(r, true));
    EXPECT_EQ(traced.at("metrics").members.size(),
              perLayerMetrics().size());
}

namespace {

RunOptions
shortRun()
{
    RunOptions opt;
    opt.seed = 3;
    opt.seconds = 0.0; // the minimum number of rounds
    opt.workdir = PERFBENCH_TEST_WORKDIR;
    ::mkdir(opt.workdir.c_str(), 0755);
    return opt;
}

std::string
committedReference()
{
    std::ifstream in(PERFBENCH_REFERENCE);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(Reference, CommittedDigestsPassTheRun)
{
    Reference ref = Reference::load(PERFBENCH_REFERENCE);
    const RunResult r = runPhase2(shortRun(), ref);
    EXPECT_TRUE(r.correct());
    EXPECT_EQ(r.failed, 0u);
}

TEST(Reference, ACorruptedDigestFailsTheRun)
{
    std::string text = committedReference();
    const std::string key = "\"phase2_replay/canneal/lva-d4\": \"";
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos);
    char &digit = text[at + key.size()];
    digit = digit == '0' ? '1' : '0';
    const std::string path = std::string(PERFBENCH_TEST_WORKDIR) +
                             "/corrupted_reference.json";
    ::mkdir(PERFBENCH_TEST_WORKDIR, 0755);
    std::ofstream(path) << text;

    Reference ref = Reference::load(path);
    const RunResult r = runPhase2(shortRun(), ref);
    EXPECT_FALSE(r.correct());
    EXPECT_GE(r.failed, 3u); // the unit fails in every round
    double okFrac = 1.0;
    for (const Metric &m : r.metrics)
        if (m.name == "ok_frac")
            okFrac = m.value;
    EXPECT_LT(okFrac, 1.0);
}
