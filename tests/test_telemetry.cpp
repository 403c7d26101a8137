/**
 * @file
 * Live-telemetry-plane suite (ctest -L telemetry; runs under TSan in
 * CI): seqlock-guarded snapshot consistency under concurrent worker
 * mutation, Prometheus text-exposition format, publisher lifecycle in
 * file and socket mode, scrape-during-reset teardown ordering, the
 * rolling-window SLO monitor (quantile oracle, bucket rollover,
 * breach edge-triggering, cross-engine determinism of the exact
 * summary), causal flow tracing (matched begin/end pairs, critical-
 * path decomposition, track metadata) and the structured log ring.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/timer.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/publisher.hpp"
#include "obs/session.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/gpu.hpp"

namespace nvbit::cudrv {
namespace {

const char *kVecAdd = R"(
.visible .entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C,
                       .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r4, %r1, %r2, %tid.x;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [B];
    ld.param.u64 %rd3, [C];
    mul.wide.u32 %rd4, %r4, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd6, %rd2, %rd4;
    ld.global.f32 %f2, [%rd6];
    add.f32 %f3, %f1, %f2;
    add.u64 %rd7, %rd3, %rd4;
    st.global.f32 [%rd7], %f3;
DONE:
    exit;
}
)";

/** Infinite loop: only the cycle watchdog ends it. */
const char *kHang = R"(
.visible .entry hang()
{
LOOP:
    bra LOOP;
    exit;
}
)";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Parse `"name": <u64>` out of a toJson() payload; ~0 if missing. */
uint64_t
jsonCounter(const std::string &js, const std::string &name)
{
    std::string key = "\"" + name + "\": ";
    size_t pos = js.find(key);
    if (pos == std::string::npos)
        return ~0ull;
    return std::strtoull(js.c_str() + pos + key.size(), nullptr, 10);
}

/** Parse the value of an exact exposition line `<series> <value>`. */
uint64_t
promValue(const std::string &payload, const std::string &series)
{
    std::string key = "\n" + series + " ";
    size_t pos = payload.find(key);
    if (pos == std::string::npos) {
        // Maybe the very first line.
        if (payload.rfind(series + " ", 0) == 0)
            pos = 0;
        else
            return ~0ull;
        return std::strtoull(payload.c_str() + series.size() + 1,
                             nullptr, 10);
    }
    return std::strtoull(payload.c_str() + pos + key.size(), nullptr,
                         10);
}

/** Smallest ladder bound >= v (the quantile estimator's resolution). */
uint64_t
ladderCeil(uint64_t v)
{
    for (uint64_t b : obs::sloLatencyBounds())
        if (v <= b)
            return b;
    return obs::sloLatencyBounds().back();
}

CUfunction
loadKernel(const char *ptx, const char *name)
{
    CUmodule mod = nullptr;
    EXPECT_EQ(cuModuleLoadData(&mod, ptx, 0), CUDA_SUCCESS);
    CUfunction fn = nullptr;
    EXPECT_EQ(cuModuleGetFunction(&fn, mod, name), CUDA_SUCCESS);
    return fn;
}

/** Launch vecadd @p n times on a fresh context + stream and sync. */
void
runVecaddLoad(uint32_t n)
{
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
    CUstream stream = nullptr;
    checkCu(cuStreamCreate(&stream, 0), "stream");
    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    uint32_t elems = 64;
    CUdeviceptr da, db, dc;
    checkCu(cuMemAlloc(&da, elems * 4), "a");
    checkCu(cuMemAlloc(&db, elems * 4), "b");
    checkCu(cuMemAlloc(&dc, elems * 4), "c");
    std::vector<float> host(elems, 1.0f);
    checkCu(cuMemcpyHtoD(da, host.data(), elems * 4), "h2d");
    checkCu(cuMemcpyHtoD(db, host.data(), elems * 4), "h2d");
    for (uint32_t i = 0; i < n; ++i) {
        void *params[] = {&da, &db, &dc, &elems};
        checkCu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, stream,
                               params, nullptr),
                "launch");
        checkCu(cuStreamSynchronize(stream), "sync");
    }
    checkCu(cuCtxDestroy(ctx), "dtor");
}

class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("NVBIT_SIM_TELEMETRY");
        ::unsetenv("NVBIT_SIM_TELEMETRY_PERIOD_MS");
        ::unsetenv("NVBIT_SIM_LOG");
        ::unsetenv("NVBIT_SIM_LOG_LEVEL");
        ::unsetenv("NVBIT_SIM_SLO_P99_US");
        clearEngineEnv();
        resetDriver();
        obs::TelemetryPublisher::instance().stop();
        obs::Tracer::instance().disableAndFlush();
        obs::StructuredLog::instance().disableAndFlush();
        obs::SloMonitor::instance().configure({250, 8, 0});
        obs::MetricsRegistry::instance().reset();
    }

    void
    TearDown() override
    {
        resetDriver();
        obs::TelemetryPublisher::instance().stop();
        obs::TelemetryPublisher::instance().setCollector(nullptr);
        obs::Tracer::instance().disableAndFlush();
        obs::StructuredLog::instance().disableAndFlush();
        obs::SloMonitor::instance().configure({250, 8, 0});
        ::unsetenv("NVBIT_SIM_TELEMETRY");
        ::unsetenv("NVBIT_SIM_TELEMETRY_PERIOD_MS");
        ::unsetenv("NVBIT_SIM_LOG");
        ::unsetenv("NVBIT_SIM_LOG_LEVEL");
        ::unsetenv("NVBIT_SIM_SLO_P99_US");
        ::unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
        for (const std::string &f : {promPath(), tracePath(), logPath()})
            std::remove(f.c_str());
    }

    // Output files are named after the running test: ctest runs each
    // test as its own process in one directory, so shared names would
    // let parallel tests overwrite or delete each other's files.
    static std::string
    outPath(const char *suffix)
    {
        const ::testing::TestInfo *t =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return std::string("test_telemetry_") + t->name() + suffix;
    }
    static std::string promPath() { return outPath(".prom"); }
    static std::string tracePath() { return outPath("_trace.json"); }
    static std::string logPath() { return outPath("_log.jsonl"); }
};

// ---------------------------------------------------------------------
// Snapshot consistency (the toJson-tearing fix)
// ---------------------------------------------------------------------

// A logical update spans several counters inside one Txn; every
// mid-run snapshot must see them move together.  Run under TSan in CI.
TEST_F(TelemetryTest, TxnSnapshotsNeverTear)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    constexpr int kWriters = 4;
    constexpr int kIters = 2000;
    std::atomic<int> running{kWriters};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                obs::MetricsRegistry::Txn txn(mr);
                txn.add("pair.a", 1);
                txn.add("pair.b", 1);
            }
            running.fetch_sub(1);
        });
    uint64_t snapshots = 0;
    while (running.load() > 0) {
        std::string js = mr.toJson();
        uint64_t a = jsonCounter(js, "pair.a");
        uint64_t b = jsonCounter(js, "pair.b");
        if (a == ~0ull) // no batch landed yet
            continue;
        ASSERT_EQ(a, b) << "torn snapshot after " << snapshots
                        << " reads";
        ++snapshots;
    }
    for (auto &t : writers)
        t.join();
    EXPECT_EQ(mr.value("pair.a"), uint64_t(kWriters) * kIters);
    EXPECT_EQ(mr.value("pair.b"), uint64_t(kWriters) * kIters);
    // Quiescent epoch is even, and a snapshot reports it as such.
    EXPECT_EQ(mr.epoch() % 2, 0u);
    EXPECT_EQ(promValue(mr.toPrometheus(), "nvbit_metrics_epoch") % 2,
              0u);
}

// "Epoch moved" must mean "content changed", never "someone wrote":
// the file-mode publisher runs its collector every tick and relies on
// no-op gauge republication leaving the epoch alone to skip rewriting
// an idle registry.
TEST_F(TelemetryTest, NoOpWritesLeaveEpochAlone)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    mr.setGauge("g", 5);
    mr.add("c", 3);
    mr.noteMax("m", 7);
    const uint64_t e = mr.epoch();
    EXPECT_EQ(e % 2, 0u);
    mr.setGauge("g", 5);             // same value
    mr.noteMax("m", 6);              // below the max
    mr.add("c", 0);                  // zero delta on an existing counter
    mr.observe("undefined.hist", 1); // histogram never defined
    {
        obs::MetricsRegistry::Txn txn(mr); // all-no-op batch
        txn.setGauge("g", 5);
        txn.noteMax("m", 7);
    }
    EXPECT_EQ(mr.epoch(), e);
    mr.setGauge("g", 6);
    EXPECT_NE(mr.epoch(), e);
    EXPECT_EQ(mr.epoch() % 2, 0u);
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, PrometheusExpositionFormat)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    mr.add("driver.launches", 7);
    mr.add("driver.tenant3.launches", 5);
    mr.setGauge("driver.tenant3.queue_depth", 2);
    mr.defineHistogram("driver.tenant3.launch_latency_us", {10, 100},
                       obs::Stability::Volatile);
    mr.observe("driver.tenant3.launch_latency_us", 5);
    mr.observe("driver.tenant3.launch_latency_us", 50);
    mr.observe("driver.tenant3.launch_latency_us", 500);

    std::string p = mr.toPrometheus();
    // Per-tenant series fold into one labelled family with a single
    // TYPE line; the unlabelled aggregate shares the family.
    EXPECT_NE(p.find("# TYPE nvbit_driver_launches counter\n"),
              std::string::npos);
    EXPECT_EQ(p.find("# TYPE nvbit_driver_launches counter"),
              p.rfind("# TYPE nvbit_driver_launches counter"));
    EXPECT_NE(p.find("nvbit_driver_launches 7\n"), std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_launches{tenant=\"3\"} 5\n"),
              std::string::npos);
    // Gauges keep last-write-wins semantics and the gauge TYPE.
    EXPECT_NE(p.find("# TYPE nvbit_driver_queue_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_queue_depth{tenant=\"3\"} 2\n"),
              std::string::npos);
    // Histograms render cumulative buckets plus +Inf, _sum, _count.
    EXPECT_NE(
        p.find("# TYPE nvbit_driver_launch_latency_us histogram\n"),
        std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_launch_latency_us_bucket{"
                     "tenant=\"3\",le=\"10\"} 1\n"),
              std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_launch_latency_us_bucket{"
                     "tenant=\"3\",le=\"100\"} 2\n"),
              std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_launch_latency_us_bucket{"
                     "tenant=\"3\",le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_launch_latency_us_sum"
                     "{tenant=\"3\"} 555\n"),
              std::string::npos);
    EXPECT_NE(p.find("nvbit_driver_launch_latency_us_count"
                     "{tenant=\"3\"} 3\n"),
              std::string::npos);
    // Registry self-description.
    EXPECT_NE(p.find("# TYPE nvbit_launches_total counter\n"),
              std::string::npos);
    EXPECT_NE(p.find("# TYPE nvbit_metrics_epoch gauge\n"),
              std::string::npos);
    // Sanitised names only.
    EXPECT_EQ(p.find('.'), std::string::npos);
}

// ---------------------------------------------------------------------
// Publisher lifecycle
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, PublisherFileModeTracksRegistry)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    obs::TelemetryPublisher &pub = obs::TelemetryPublisher::instance();
    mr.add("driver.launches", 3);
    ASSERT_TRUE(pub.start(promPath(), 5));
    EXPECT_TRUE(pub.running());
    uint64_t first = pub.scrapeCount();
    // The publisher keeps scraping on its own.
    for (int i = 0; i < 400 && pub.scrapeCount() <= first; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GT(pub.scrapeCount(), first);
    mr.add("driver.launches", 4);
    pub.stop();
    EXPECT_FALSE(pub.running());
    // stop() leaves a final snapshot equal to the registry end state.
    std::string payload = readFile(promPath());
    EXPECT_EQ(promValue(payload, "nvbit_driver_launches"), 7u);
    EXPECT_EQ(promValue(payload, "nvbit_metrics_epoch"), mr.epoch());
}

TEST_F(TelemetryTest, PublisherSocketModeServesScrapes)
{
    std::string path =
        "/tmp/nvbit_tel_" + std::to_string(::getpid()) + ".sock";
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    obs::TelemetryPublisher &pub = obs::TelemetryPublisher::instance();
    mr.add("driver.launches", 9);
    ASSERT_TRUE(pub.start("unix:" + path, 5));

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::string payload;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        payload.append(buf, static_cast<size_t>(n));
    ::close(fd);

    EXPECT_EQ(promValue(payload, "nvbit_driver_launches"), 9u);
    EXPECT_EQ(promValue(payload, "nvbit_metrics_epoch") % 2, 0u);
    pub.stop();
    // The socket file is unlinked on stop.
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// The collector must keep running while the registry is otherwise
// quiescent: windowed SLO gauges decay as ring buckets age out, and
// that decay has to reach the exposition file even though no worker
// is mutating anything.
TEST_F(TelemetryTest, FileModeCollectorRunsWhileRegistryIdle)
{
    obs::SloMonitor &slo = obs::SloMonitor::instance();
    slo.configure({50, 4, 0}); // 200 ms window
    obs::TelemetryPublisher &pub = obs::TelemetryPublisher::instance();
    pub.setCollector(
        [] { obs::SloMonitor::instance().publishGauges(nowNs()); });
    slo.recordOp(0, 100, false, nowNs());
    ASSERT_TRUE(pub.start(promPath(), 5));
    // The op shows up in the windowed gauge first, then ages out of
    // the window with no further registry traffic — visible only if
    // the collector ran on an idle registry.
    bool saw_one = false, saw_zero = false;
    for (int i = 0; i < 400 && !saw_zero; ++i) {
        std::string payload = readFile(promPath());
        uint64_t ops = promValue(
            payload, "nvbit_slo_window_ops{tenant=\"0\"}");
        if (ops == 1)
            saw_one = true;
        if (saw_one && ops == 0)
            saw_zero = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pub.stop();
    EXPECT_TRUE(saw_one);
    EXPECT_TRUE(saw_zero);
}

// A scraper that hangs up before reading the payload must not take
// the workload down: the publisher writes with MSG_NOSIGNAL, so a
// dead peer yields EPIPE instead of a process-killing SIGPIPE.
TEST_F(TelemetryTest, SocketScraperHangupDoesNotKillProcess)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    // Bloat the payload well past a Unix-socket send buffer so the
    // publisher is mid-write when it notices the peer is gone.
    for (int i = 0; i < 30000; ++i)
        mr.add("bloat.c" + std::to_string(i),
               static_cast<uint64_t>(i));
    std::string path = "/tmp/nvbit_tel_" + std::to_string(::getpid()) +
                       "_pipe.sock";
    obs::TelemetryPublisher &pub = obs::TelemetryPublisher::instance();
    ASSERT_TRUE(pub.start("unix:" + path, 5));
    auto connectTo = [&]() {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    };
    // Hang up immediately, repeatedly, without reading a byte.
    for (int i = 0; i < 3; ++i) {
        int fd = connectTo();
        ASSERT_GE(fd, 0);
        ::close(fd);
    }
    // The publisher survives and still serves complete payloads.
    int fd = connectTo();
    ASSERT_GE(fd, 0);
    std::string payload;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        payload.append(buf, static_cast<size_t>(n));
    ::close(fd);
    EXPECT_EQ(promValue(payload, "nvbit_bloat_c42"), 42u);
    pub.stop();
    EXPECT_FALSE(pub.running());
}

// Live scrape mid-run must agree with the end-of-run export: the
// driver wires the publisher via NVBIT_SIM_TELEMETRY, the load runs,
// and the final file equals the registry the exit-time
// NVBIT_SIM_METRICS export would serialise.
TEST_F(TelemetryTest, LiveScrapeMatchesEndOfRunExport)
{
    ::setenv("NVBIT_SIM_TELEMETRY", promPath().c_str(), 1);
    ::setenv("NVBIT_SIM_TELEMETRY_PERIOD_MS", "5", 1);
    checkCu(cuInit(0), "init");
    EXPECT_TRUE(obs::TelemetryPublisher::instance().running());
    runVecaddLoad(20);
    // A mid-run scrape is internally consistent: the per-op critical
    // path counters land in one Txn with the op count, so completed
    // ops and their wait totals can never be observed apart.
    std::string live =
        obs::TelemetryPublisher::instance().scrapeOnce();
    EXPECT_NE(live.find("nvbit_driver_ops_completed{tenant=\"0\"}"),
              std::string::npos);
    EXPECT_EQ(promValue(live, "nvbit_metrics_epoch") % 2, 0u);
    resetDriver(); // stops the publisher, writes the final snapshot
    EXPECT_FALSE(obs::TelemetryPublisher::instance().running());
    std::string payload = readFile(promPath());
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    EXPECT_EQ(promValue(payload, "nvbit_driver_launches"),
              mr.value("driver.launches"));
    EXPECT_EQ(mr.value("driver.launches"), 20u);
}

// Teardown ordering regression: scrapes racing resetDriver must not
// touch a dying stream service (the publisher is stopped, and its
// collector cleared, before the service goes down).  Run under TSan.
TEST_F(TelemetryTest, ScrapeDuringResetIsSafe)
{
    ::setenv("NVBIT_SIM_TELEMETRY", promPath().c_str(), 1);
    ::setenv("NVBIT_SIM_TELEMETRY_PERIOD_MS", "1", 1);
    checkCu(cuInit(0), "init");
    runVecaddLoad(5);
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
        while (!stop.load())
            obs::TelemetryPublisher::instance().scrapeOnce();
    });
    resetDriver();
    stop.store(true);
    scraper.join();
    EXPECT_FALSE(obs::TelemetryPublisher::instance().running());
}

// ---------------------------------------------------------------------
// SLO monitor
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, SloQuantilesMatchOracle)
{
    obs::SloMonitor &slo = obs::SloMonitor::instance();
    // One huge bucket so everything lands in a single window.
    slo.configure({100000, 4, 0});
    // Deterministic pseudo-random latencies (LCG), 1us .. ~1s range.
    std::vector<uint64_t> lat;
    uint64_t x = 12345;
    for (int i = 0; i < 1000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        lat.push_back(1 + (x >> 33) % 1000000);
        slo.recordOp(0, lat.back(), false, 1000);
    }
    obs::SloWindow w;
    ASSERT_TRUE(slo.window(0, 1000, w));
    EXPECT_EQ(w.ops, 1000u);
    // Oracle: the estimator returns the smallest ladder bound whose
    // cumulative count reaches the rank, which for raw samples is the
    // ladder-ceiling of the exact order statistic.
    std::vector<uint64_t> sorted = lat;
    std::sort(sorted.begin(), sorted.end());
    uint64_t rank50 = (w.ops + 1) / 2;
    uint64_t rank99 = (w.ops * 99 + 99) / 100;
    EXPECT_EQ(w.p50_us, ladderCeil(sorted[rank50 - 1]));
    EXPECT_EQ(w.p99_us, ladderCeil(sorted[rank99 - 1]));

    // Bimodal sanity check with exactly known ranks.
    slo.configure({100000, 4, 0});
    for (int i = 0; i < 100; ++i)
        slo.recordOp(1, 10, false, 1000);
    for (int i = 0; i < 100; ++i)
        slo.recordOp(1, 1000, i < 2, 1000); // 2 errors
    ASSERT_TRUE(slo.window(1, 1000, w));
    EXPECT_EQ(w.ops, 200u);
    EXPECT_EQ(w.errors, 2u);
    EXPECT_EQ(w.p50_us, 10u);   // rank 100 lands in the 10us bucket
    EXPECT_EQ(w.p99_us, 1000u); // rank 198 lands in the 1000us bucket
    EXPECT_EQ(w.error_ppm, 10000u);
}

TEST_F(TelemetryTest, SloBucketRolloverAtWindowEdge)
{
    obs::SloMonitor &slo = obs::SloMonitor::instance();
    slo.configure({250, 4, 0}); // window = 1 s
    const uint64_t bucket_ns = 250ull * 1000000;
    slo.recordOp(0, 100, false, 0);
    obs::SloWindow w;
    // Live through the last covered bucket...
    ASSERT_TRUE(slo.window(0, 4 * bucket_ns - 1, w));
    EXPECT_EQ(w.ops, 1u);
    // ...and out of the window one tick later.
    ASSERT_TRUE(slo.window(0, 4 * bucket_ns, w));
    EXPECT_EQ(w.ops, 0u);
    EXPECT_EQ(w.p99_us, 0u);
    // Lazy rollover: writing the wrapped slot evicts the old epoch.
    slo.recordOp(0, 5000, false, 4 * bucket_ns);
    ASSERT_TRUE(slo.window(0, 4 * bucket_ns, w));
    EXPECT_EQ(w.ops, 1u);
    EXPECT_EQ(w.p99_us, 5000u);
    // Lifetime summary keeps counting across rollovers.
    obs::SloSummary s;
    ASSERT_TRUE(slo.summary(0, s));
    EXPECT_EQ(s.ops, 2u);
    EXPECT_EQ(s.errors, 0u);
}

TEST_F(TelemetryTest, SloBreachesAreEdgeTriggered)
{
    ::setenv("NVBIT_SIM_SLO_P99_US", "100", 1);
    obs::SloMonitor &slo = obs::SloMonitor::instance();
    slo.configure({250, 4, 0});
    obs::session::applySettings();
    const uint64_t bucket_ns = 250ull * 1000000;

    slo.recordOp(0, 1000, false, 0);
    slo.publishGauges(0); // crossing: breach
    slo.publishGauges(0); // still over: no new breach
    obs::SloSummary s;
    ASSERT_TRUE(slo.summary(0, s));
    EXPECT_EQ(s.breaches, 1u);
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    EXPECT_EQ(mr.value("slo.tenant0.breaches"), 1u);
    EXPECT_EQ(mr.value("slo.tenant0.window_p99_us"), 1000u);

    // Window drains -> recovered; the next crossing counts again.
    slo.publishGauges(5 * bucket_ns);
    slo.recordOp(0, 2000, false, 5 * bucket_ns);
    slo.publishGauges(5 * bucket_ns);
    ASSERT_TRUE(slo.summary(0, s));
    EXPECT_EQ(s.breaches, 2u);
}

/** One full vecadd run under the given engine config; returns the
 *  end-of-run exact SLO summary of tenant 0. */
obs::SloSummary
runConfigAndSummarise(const EngineConfig &e)
{
    resetDriver();
    obs::MetricsRegistry::instance().reset();
    obs::SloMonitor::instance().configure({250, 8, 0});
    sim::GpuConfig cfg;
    e.apply(cfg);
    setDeviceConfig(cfg);
    checkCu(cuInit(0), "init");
    runVecaddLoad(10);
    obs::SloSummary s;
    EXPECT_TRUE(obs::SloMonitor::instance().summary(0, s));
    resetDriver(); // also clears the SLO windows
    return s;
}

// The exact part of the SLO summary (retired-op and error counts)
// must be identical across all four engine configurations — wall-clock
// quantiles are Volatile, op counts are not.
TEST_F(TelemetryTest, SloExactSummaryDeterministicAcrossConfigs)
{
    obs::SloSummary base = runConfigAndSummarise(kEngineMatrix[0]);
    EXPECT_GT(base.ops, 0u);
    for (const EngineConfig &e : std::span(kEngineMatrix).subspan(1)) {
        obs::SloSummary s = runConfigAndSummarise(e);
        EXPECT_EQ(s.ops, base.ops) << e.name;
        EXPECT_EQ(s.errors, base.errors) << e.name;
    }
}

// ---------------------------------------------------------------------
// Causal flow tracing
// ---------------------------------------------------------------------

/** Collect the flow ids of every (@p ph, @p cat) event in @p doc. */
std::multiset<uint64_t>
flowIdsOf(const std::string &doc, char ph, const std::string &cat)
{
    std::multiset<uint64_t> ids;
    std::string needle = std::string("\"ph\": \"") + ph + "\"";
    size_t pos = 0;
    while ((pos = doc.find(needle, pos)) != std::string::npos) {
        size_t eol = doc.find('\n', pos);
        std::string line = doc.substr(pos, eol - pos);
        pos = pos + needle.size();
        if (line.find("\"cat\": \"" + cat + "\"") == std::string::npos)
            continue;
        size_t idp = line.find("\"id\": ");
        if (idp == std::string::npos)
            continue;
        ids.insert(
            std::strtoull(line.c_str() + idp + 6, nullptr, 10));
    }
    return ids;
}

TEST_F(TelemetryTest, FlowPairsMatchAndDecompositionSums)
{
    obs::Tracer &tr = obs::Tracer::instance();
    tr.enableToFile(tracePath());
    checkCu(cuInit(0), "init");

    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
    CUstream s1 = nullptr, s2 = nullptr;
    checkCu(cuStreamCreate(&s1, 0), "s1");
    checkCu(cuStreamCreate(&s2, 0), "s2");
    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    uint32_t elems = 64;
    CUdeviceptr da, db, dc;
    checkCu(cuMemAlloc(&da, elems * 4), "a");
    checkCu(cuMemAlloc(&db, elems * 4), "b");
    checkCu(cuMemAlloc(&dc, elems * 4), "c");
    std::vector<float> host(elems, 2.0f);
    checkCu(cuMemcpyHtoD(da, host.data(), elems * 4), "h2d");
    checkCu(cuMemcpyHtoD(db, host.data(), elems * 4), "h2d");
    CUevent ev = nullptr;
    checkCu(cuEventCreate(&ev, 0), "event");
    for (int i = 0; i < 5; ++i) {
        void *params[] = {&da, &db, &dc, &elems};
        checkCu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, s1, params,
                               nullptr),
                "launch");
        // Cross-stream dependency: s2 waits on s1's record.
        checkCu(cuEventRecord(ev, s1), "record");
        checkCu(cuStreamWaitEvent(s2, ev, 0), "wait");
        checkCu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, s2, params,
                               nullptr),
                "launch2");
        checkCu(cuStreamSynchronize(s1), "sync1");
        checkCu(cuStreamSynchronize(s2), "sync2");
    }
    checkCu(cuCtxDestroy(ctx), "dtor");
    resetDriver();
    ASSERT_EQ(tr.disableAndFlush(), tracePath());

    std::string doc = readFile(tracePath());
    // Every stream-op flow that begins also steps and ends, with the
    // same id exactly once per phase.
    auto begins = flowIdsOf(doc, 's', "stream.op");
    auto steps = flowIdsOf(doc, 't', "stream.op");
    auto ends = flowIdsOf(doc, 'f', "stream.op");
    EXPECT_GT(begins.size(), 0u);
    EXPECT_EQ(begins, ends);
    for (uint64_t id : std::set<uint64_t>(begins.begin(), begins.end()))
        EXPECT_EQ(begins.count(id), 1u) << "flow id " << id;
    // Executed ops (launches, copies) step on their worker track;
    // marker ops (record/wait) complete without a dispatch, so steps
    // are a strict subset.  10 = 5 iterations x 2 launches.
    EXPECT_GE(steps.size(), 10u);
    for (uint64_t id : steps)
        EXPECT_EQ(begins.count(id), 1u) << "orphan step " << id;
    // Dependency edges pair up too (record publishes, wait consumes).
    auto dep_begin = flowIdsOf(doc, 's', "stream.dep");
    auto dep_end = flowIdsOf(doc, 'f', "stream.dep");
    EXPECT_EQ(dep_begin.size(), 5u);
    EXPECT_EQ(dep_begin, dep_end);
    // Track metadata names both sides of every flow arrow.
    EXPECT_NE(doc.find("tenant0 client"), std::string::npos);
    EXPECT_NE(doc.find("stream engine"), std::string::npos);

    // Critical-path decomposition on every completed op: queue-wait +
    // gate-wait + execute equals the client-observed latency exactly.
    size_t pos = 0, checked = 0;
    while ((pos = doc.find("\"queue_wait_ns\": ", pos)) !=
           std::string::npos) {
        size_t eol = doc.find('\n', pos);
        std::string line = doc.substr(pos, eol - pos);
        pos = eol;
        auto field = [&](const char *key) -> uint64_t {
            std::string k = std::string("\"") + key + "\": ";
            size_t p = line.find(k);
            EXPECT_NE(p, std::string::npos) << key << " in " << line;
            return p == std::string::npos
                       ? 0
                       : std::strtoull(line.c_str() + p + k.size(),
                                       nullptr, 10);
        };
        EXPECT_EQ(field("queue_wait_ns") + field("gate_wait_ns") +
                      field("execute_ns"),
                  field("latency_ns"));
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

// Cancellation must keep every flow paired: a context destroyed with
// a queued record *and* a queued cross-stream wait emits the record's
// dependency begin and the wait's dependency end, so no `s` event in
// the trace is left without its `f`.
TEST_F(TelemetryTest, CancelledWaitClosesDependencyEdge)
{
    // Big enough that the hang is still in flight when the context is
    // destroyed (the enqueues below take microseconds), small enough
    // that drainContext's watchdog-bounded wait stays short.
    ::setenv("NVBIT_SIM_WATCHDOG_CYCLES", "2000000", 1);
    obs::Tracer &tr = obs::Tracer::instance();
    tr.enableToFile(tracePath());
    checkCu(cuInit(0), "init");
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
    CUstream s1 = nullptr, s2 = nullptr;
    checkCu(cuStreamCreate(&s1, 0), "s1");
    checkCu(cuStreamCreate(&s2, 0), "s2");
    CUfunction hang = loadKernel(kHang, "hang");
    CUevent ev = nullptr;
    checkCu(cuEventCreate(&ev, 0), "event");
    // The hang occupies s1's worker, so the record stays queued behind
    // it and the wait stays gated on the record's generation.
    checkCu(cuLaunchKernel(hang, 1, 1, 1, 1, 1, 1, 0, s1, nullptr,
                           nullptr),
            "hang");
    checkCu(cuEventRecord(ev, s1), "record");
    checkCu(cuStreamWaitEvent(s2, ev, 0), "wait");
    cuCtxDestroy(ctx); // cancels both queued ops; watchdog result ok
    resetDriver();
    ASSERT_EQ(tr.disableAndFlush(), tracePath());
    std::string doc = readFile(tracePath());
    auto begins = flowIdsOf(doc, 's', "stream.op");
    auto ends = flowIdsOf(doc, 'f', "stream.op");
    EXPECT_GT(begins.size(), 0u);
    EXPECT_EQ(begins, ends);
    auto dep_begin = flowIdsOf(doc, 's', "stream.dep");
    auto dep_end = flowIdsOf(doc, 'f', "stream.dep");
    EXPECT_EQ(dep_begin.size(), 1u);
    EXPECT_EQ(dep_begin, dep_end);
}

// Telemetry fully on vs fully off must leave the exact counters
// bit-identical (single-config spot check; bench/fig_telemetry_overhead
// sweeps the full load and scripts/ci.sh the engine matrix).
TEST_F(TelemetryTest, TelemetryIsPassive)
{
    auto exactCounters = [] {
        std::string js =
            obs::MetricsRegistry::instance().toJson(true);
        size_t cut = js.find("\"launches\":");
        return cut == std::string::npos ? js : js.substr(0, cut);
    };
    checkCu(cuInit(0), "init");
    runVecaddLoad(10);
    std::string off = exactCounters();
    resetDriver();
    obs::MetricsRegistry::instance().reset();

    ::setenv("NVBIT_SIM_TELEMETRY", promPath().c_str(), 1);
    ::setenv("NVBIT_SIM_TELEMETRY_PERIOD_MS", "2", 1);
    obs::Tracer::instance().enableToFile(tracePath());
    obs::StructuredLog::instance().enableToFile(logPath());
    checkCu(cuInit(0), "init");
    runVecaddLoad(10);
    std::string on = exactCounters();
    resetDriver();
    EXPECT_EQ(off, on);
}

// ---------------------------------------------------------------------
// Structured log
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, LogRingLevelsAndOverflow)
{
    obs::StructuredLog &log = obs::StructuredLog::instance();
    EXPECT_FALSE(log.enabled(obs::LogLevel::Error));
    log.log(obs::LogLevel::Error, "test", "dropped when disabled");
    EXPECT_EQ(log.size(), 0u);

    log.enableToFile(logPath(), obs::LogLevel::Info);
    EXPECT_TRUE(log.enabled(obs::LogLevel::Info));
    EXPECT_FALSE(log.enabled(obs::LogLevel::Debug));
    log.log(obs::LogLevel::Debug, "test", "below the level");
    log.log(obs::LogLevel::Info, "test", "hello",
            {{"answer", "42"}, {"quote", "say \"hi\""}});
    log.log(obs::LogLevel::Warn, "test", "warned");
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.flush(), logPath());
    std::string doc = readFile(logPath());
    EXPECT_NE(doc.find("\"level\": \"info\""), std::string::npos);
    EXPECT_NE(doc.find("\"component\": \"test\""), std::string::npos);
    EXPECT_NE(doc.find("\"answer\": \"42\""), std::string::npos);
    EXPECT_NE(doc.find("say \\\"hi\\\""), std::string::npos);
    EXPECT_EQ(doc.find("below the level"), std::string::npos);

    // The ring is bounded: older records are evicted, counted, and the
    // flush reports the loss.
    for (int i = 0; i < 5000; ++i)
        log.log(obs::LogLevel::Info, "test", "spam");
    EXPECT_EQ(log.size(), 4096u);
    EXPECT_GT(log.dropped(), 0u);
    log.flush();
    doc = readFile(logPath());
    EXPECT_NE(doc.find("dropped"), std::string::npos);
    EXPECT_EQ(doc.find("\"msg\": \"hello\""), std::string::npos);
}

// The fault path flushes the ring (alongside metrics/trace/profile)
// so a crashing launch leaves its log on disk without any exit hook.
TEST_F(TelemetryTest, FaultPathFlushesLog)
{
    ::setenv("NVBIT_SIM_WATCHDOG_CYCLES", "20000", 1);
    obs::StructuredLog::instance().enableToFile(logPath());
    checkCu(cuInit(0), "init");
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
    CUfunction fn = loadKernel(kHang, "hang");
    CUresult r = cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr,
                                nullptr, nullptr);
    if (r == CUDA_SUCCESS)
        r = cuCtxSynchronize();
    EXPECT_NE(r, CUDA_SUCCESS);
    // No flush() here: the fault path must have written the file.
    std::string doc = readFile(logPath());
    EXPECT_NE(doc.find("\"level\": \"error\""), std::string::npos);
    EXPECT_NE(doc.find("trapped"), std::string::npos);
    EXPECT_NE(doc.find("\"kernel\": \"hang\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Observability session: start and exit order
// ---------------------------------------------------------------------

/** One thread summing 0..n-1: long enough to still be running on the
 *  stream worker when the process exits. */
const char *kSlowSum = R"(
.visible .entry slowsum(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<2>;
    .reg .pred %p<2>;
    ld.param.u32 %r1, [n];
    mov.u32 %r2, 0;
    mov.u32 %r3, 0;
LOOP:
    add.u32 %r3, %r3, %r2;
    add.u32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r1;
    @%p1 bra LOOP;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], %r3;
    exit;
}
)";

std::string
sessionPath(const char *suffix)
{
    return std::string("test_telemetry_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
}

/** Launch slowsum on an explicit stream and exit while it runs. */
[[noreturn]] void
exitDuringSlowLaunch()
{
    checkCu(cuInit(0), "init");
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
    CUfunction fn = loadKernel(kSlowSum, "slowsum");
    CUstream s = nullptr;
    checkCu(cuStreamCreate(&s, 0), "stream");
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 4), "alloc");
    uint32_t n = 200000;
    void *params[] = {&out, &n};
    checkCu(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, s, params, nullptr),
            "launch");
    // Exit only once the worker holds the GPU for this launch: queued
    // ops are cancelled at exit, in-flight ones complete.
    detail::GpuSlot &slot = detail::gpuSlot(0);
    while (cuStreamQuery(s) == CUDA_ERROR_NOT_READY && slot.mu.try_lock()) {
        slot.mu.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::exit(0);
}

// A launch still running when the program exits without resetDriver()
// reaches every artifact: the exit handler drains the stream service
// before the publisher, the tracer and the exports write anything.
TEST(SessionExitTest, ExitDuringLaunchExportsTheLaunch)
{
    // A fresh child process, so its session starts with the variables
    // below (a forked child would inherit this process's session).
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string metrics = sessionPath("_metrics.json");
    const std::string trace = sessionPath("_trace.json");
    const std::string prom = sessionPath(".prom");
    for (const std::string &f : {metrics, trace, prom})
        std::remove(f.c_str());
    ::setenv("NVBIT_SIM_METRICS", metrics.c_str(), 1);
    ::setenv("NVBIT_SIM_TRACE", trace.c_str(), 1);
    ::setenv("NVBIT_SIM_TELEMETRY", prom.c_str(), 1);
    EXPECT_EXIT(exitDuringSlowLaunch(), ::testing::ExitedWithCode(0), "");
    for (const char *v :
         {"NVBIT_SIM_METRICS", "NVBIT_SIM_TRACE", "NVBIT_SIM_TELEMETRY"})
        ::unsetenv(v);

    const std::string js = readFile(metrics);
    EXPECT_EQ(jsonCounter(js, "driver.launches"), 1u) << js;
    EXPECT_EQ(jsonCounter(js, "sim.launches"), 1u) << js;
    const std::string doc = readFile(trace);
    auto begins = flowIdsOf(doc, 's', "stream.op");
    EXPECT_GT(begins.size(), 0u);
    EXPECT_EQ(begins, flowIdsOf(doc, 'f', "stream.op"));
    EXPECT_EQ(promValue(readFile(prom), "nvbit_launches_total"), 1u);
    for (const std::string &f : {metrics, trace, prom})
        std::remove(f.c_str());
}

/** Report, through the exit code, every sink the empty values turned
 *  on; the first instance() call starts the session. */
[[noreturn]] void
exitWithSinksTurnedOn()
{
    int on = 0;
    if (obs::Tracer::instance().enabled())
        on |= 1;
    if (obs::StructuredLog::instance().enabled(obs::LogLevel::Error))
        on |= 2;
    if (obs::MetricsRegistry::instance().launchRecordCap() !=
        obs::MetricsRegistry::kDefaultLaunchRecordCap)
        on |= 4;
    checkCu(cuInit(0), "init");
    if (obs::TelemetryPublisher::instance().running())
        on |= 8;
    std::exit(on);
}

TEST(SessionExitTest, EmptyValueMeansUnset)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const char *vars[] = {
        "NVBIT_SIM_METRICS",   "NVBIT_SIM_METRICS_HISTORY",
        "NVBIT_SIM_TRACE",     "NVBIT_SIM_PROFILE",
        "NVBIT_SIM_SANCHECK_REPORT", "NVBIT_SIM_LOG",
        "NVBIT_SIM_LOG_LEVEL", "NVBIT_SIM_TELEMETRY",
        "NVBIT_SIM_TELEMETRY_PERIOD_MS", "NVBIT_SIM_SLO_P99_US"};
    for (const char *v : vars)
        ::setenv(v, "", 1);
    // Exit code 0: nothing turned on.  Empty stderr: no warning about
    // a malformed value and no attempt to write an export to "".
    EXPECT_EXIT(exitWithSinksTurnedOn(), ::testing::ExitedWithCode(0),
                ::testing::MatchesRegex(""));
    for (const char *v : vars)
        ::unsetenv(v);
}

} // namespace
} // namespace nvbit::cudrv
