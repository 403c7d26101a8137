/**
 * @file
 * Shared multi-tenant load generator for the driver-service benches.
 *
 * Extracted from mt_driver.cpp so BENCH_mt_driver (throughput/latency
 * and multi-tenant scaling) and BENCH_fig_telemetry_overhead
 * (telemetry-on vs telemetry-off on the *same* load) measure exactly
 * the same workload: N tenant threads, one context + one explicit
 * stream each, firing small vecadd launches and syncing after each.
 *
 * The caller owns driver lifecycle (resetDriver / cuInit / registry
 * reset) so each bench controls what state a run starts from.
 */
#ifndef NVBIT_BENCH_MT_LOADGEN_HPP
#define NVBIT_BENCH_MT_LOADGEN_HPP

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "driver/internal.hpp"

namespace nvbit::bench {

inline const char *kVecAddPtx = R"(
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

struct TenantStats {
    uint64_t launches = 0;
    uint64_t rejects = 0;
    std::vector<double> latency_us; ///< one sample per launch
};

inline double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t idx = static_cast<size_t>(p * static_cast<double>(
                                             samples.size() - 1));
    return samples[idx];
}

/** One tenant's whole life: context, stream, N launch+sync rounds. */
inline void
tenantBody(uint32_t launches, uint32_t elems, TenantStats *out)
{
    using namespace nvbit::cudrv;

    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "cuCtxCreate");
    CUstream stream = nullptr;
    checkCu(cuStreamCreate(&stream, 0), "cuStreamCreate");

    CUmodule mod = nullptr;
    checkCu(cuModuleLoadData(&mod, kVecAddPtx, 0), "cuModuleLoadData");
    CUfunction fn = nullptr;
    checkCu(cuModuleGetFunction(&fn, mod, "vecadd"),
            "cuModuleGetFunction");

    std::vector<float> a(elems), b(elems);
    for (uint32_t i = 0; i < elems; ++i) {
        a[i] = static_cast<float>(i);
        b[i] = 0.5f * static_cast<float>(i);
    }
    CUdeviceptr da, db, dc;
    checkCu(cuMemAlloc(&da, elems * 4), "cuMemAlloc");
    checkCu(cuMemAlloc(&db, elems * 4), "cuMemAlloc");
    checkCu(cuMemAlloc(&dc, elems * 4), "cuMemAlloc");
    checkCu(cuMemcpyHtoD(da, a.data(), elems * 4), "cuMemcpyHtoD");
    checkCu(cuMemcpyHtoD(db, b.data(), elems * 4), "cuMemcpyHtoD");

    out->latency_us.reserve(launches);
    for (uint32_t i = 0; i < launches; ++i) {
        uint64_t t0 = nowNs();
        void *params[] = {&da, &db, &dc, &elems};
        CUresult r;
        // Backpressure contract: OUT_OF_RESOURCES means "queue full,
        // drain and retry" — never an error for a patient client.
        while ((r = cuLaunchKernel(fn, (elems + 127) / 128, 1, 1, 128,
                                   1, 1, 0, stream, params, nullptr)) ==
               CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES) {
            ++out->rejects;
            checkCu(cuStreamSynchronize(stream), "drain");
        }
        checkCu(r, "cuLaunchKernel");
        checkCu(cuStreamSynchronize(stream), "cuStreamSynchronize");
        out->latency_us.push_back(
            static_cast<double>(nowNs() - t0) / 1000.0);
        ++out->launches;
    }

    checkCu(cuMemFree(da), "cuMemFree");
    checkCu(cuMemFree(db), "cuMemFree");
    checkCu(cuMemFree(dc), "cuMemFree");
    checkCu(cuModuleUnload(mod), "cuModuleUnload");
    checkCu(cuStreamDestroy(stream), "cuStreamDestroy");
    checkCu(cuCtxDestroy(ctx), "cuCtxDestroy");
}

/**
 * Run @p tenants concurrent tenantBody() threads against an
 * already-initialised driver and return the wall time in seconds.
 * @p stats is resized to @p tenants; one entry per thread.
 */
inline double
runTenantLoad(uint32_t tenants, uint32_t launches, uint32_t elems,
              std::vector<TenantStats> &stats)
{
    stats.assign(tenants, TenantStats{});
    uint64_t t0 = nowNs();
    {
        std::vector<std::thread> threads;
        threads.reserve(tenants);
        for (uint32_t t = 0; t < tenants; ++t)
            threads.emplace_back(tenantBody, launches, elems,
                                 &stats[t]);
        for (auto &th : threads)
            th.join();
    }
    return static_cast<double>(nowNs() - t0) / 1e9;
}

} // namespace nvbit::bench

#endif // NVBIT_BENCH_MT_LOADGEN_HPP
