/**
 * @file
 * BENCH_mt_driver: multi-tenant driver-service load generator.
 *
 * Several tenant threads (one context + one explicit stream each)
 * fire thousands of small vecadd launches at the stream service and
 * measure the client-observed launch latency (enqueue to stream-sync
 * completion).  Reported per tenant and in aggregate:
 *
 *   - launches/sec  (total completed launches / wall time)
 *   - p50_us / p99_us tail latency (client-side, per launch)
 *   - backpressure rejections absorbed (retried until accepted)
 *
 * A single tenant then issues the same total launch count in the same
 * process.  `tenant_scaling` is the aggregate launches/sec divided by
 * the single tenant's: a ratio of two runs on one host, which
 * scripts/bench_guard.sh gates instead of an absolute rate.
 *
 * The load generator itself lives in mt_loadgen.hpp, shared with
 * BENCH_fig_telemetry_overhead so the telemetry overhead figure
 * measures exactly this workload.
 *
 * `--smoke` shrinks the per-tenant launch count for CI's artifact-path
 * check; the default (full) mode is what scripts/bench_guard.sh gates.
 */
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json.hpp"
#include "mt_loadgen.hpp"
#include "obs/metrics.hpp"

using namespace nvbit;
using namespace nvbit::cudrv;

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const uint32_t tenants = 4;
    const uint32_t launches = smoke ? 150 : 2000;
    const uint32_t elems = 128;

    std::printf("BENCH_mt_driver: %u tenants x %u launches "
                "(vecadd, %u elems, explicit streams)\n",
                tenants, launches, elems);

    resetDriver();
    obs::MetricsRegistry::instance().reset();
    checkCu(cuInit(0), "cuInit");

    std::vector<bench::TenantStats> stats;
    double wall_s = bench::runTenantLoad(tenants, launches, elems,
                                         stats);

    uint64_t total_launches = 0, total_rejects = 0;
    std::vector<double> all_lat;
    std::vector<bench::JsonRow> rows;
    std::printf("%-8s %10s %12s %9s %9s %8s\n", "tenant", "launches",
                "launch/sec", "p50_us", "p99_us", "rejects");
    for (uint32_t t = 0; t < tenants; ++t) {
        bench::TenantStats &s = stats[t];
        total_launches += s.launches;
        total_rejects += s.rejects;
        all_lat.insert(all_lat.end(), s.latency_us.begin(),
                       s.latency_us.end());
        double lps = static_cast<double>(s.launches) / wall_s;
        double p50 = bench::percentile(s.latency_us, 0.50);
        double p99 = bench::percentile(s.latency_us, 0.99);
        std::printf("%-8u %10llu %12.0f %9.2f %9.2f %8llu\n", t,
                    static_cast<unsigned long long>(s.launches), lps,
                    p50, p99,
                    static_cast<unsigned long long>(s.rejects));
        rows.push_back(
            {{"tenant", bench::jNum(static_cast<uint64_t>(t))},
             {"launches", bench::jNum(s.launches)},
             {"launches_per_sec", bench::jNum(lps)},
             {"p50_us", bench::jNum(p50)},
             {"p99_us", bench::jNum(p99)},
             {"rejects", bench::jNum(s.rejects)}});
    }

    double lps = static_cast<double>(total_launches) / wall_s;
    double p50 = bench::percentile(all_lat, 0.50);
    double p99 = bench::percentile(all_lat, 0.99);
    std::printf("total: %llu launches in %.3f s = %.0f launches/sec, "
                "p50 %.2f us, p99 %.2f us, %llu backpressure "
                "rejections\n",
                static_cast<unsigned long long>(total_launches),
                wall_s, lps, p50, p99,
                static_cast<unsigned long long>(total_rejects));

    std::vector<bench::TenantStats> single;
    double single_wall_s = bench::runTenantLoad(1, tenants * launches,
                                                elems, single);
    double single_lps =
        static_cast<double>(single[0].launches) / single_wall_s;
    double scaling = lps / single_lps;
    std::printf("single tenant: %llu launches in %.3f s = %.0f "
                "launches/sec; %u-tenant scaling %.2fx\n",
                static_cast<unsigned long long>(single[0].launches),
                single_wall_s, single_lps, tenants, scaling);

    bench::writeBenchJson(
        "mt_driver", "tenants", rows,
        {{"tenant_count", bench::jNum(static_cast<uint64_t>(tenants))},
         {"total_launches", bench::jNum(total_launches)},
         {"launches_per_sec", bench::jNum(lps)},
         {"p50_us", bench::jNum(p50)},
         {"p99_us", bench::jNum(p99)},
         {"rejects", bench::jNum(total_rejects)},
         {"single_tenant_launches_per_sec", bench::jNum(single_lps)},
         {"tenant_scaling", bench::jNum(scaling)},
         {"smoke", bench::jBool(smoke)}});
    resetDriver();
    return 0;
}
