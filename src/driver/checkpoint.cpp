#include "driver/checkpoint.hpp"

#include <mutex>

#include "common/logging.hpp"

namespace nvbit::cudrv {

DriverCheckpoint
captureDriverState(CUcontext ctx)
{
    NVBIT_ASSERT(ctx != nullptr, "captureDriverState needs a context");
    detail::StreamService &svc = detail::StreamService::instance();
    NVBIT_ASSERT(svc.paused(),
                 "driver capture requires a paused stream service");
    DriverCheckpoint dc;
    dc.queues = svc.captureQueues(ctx);
    dc.accounting = detail::captureAccounting(ctx);
    // Lock order: the accounting capture took the driver state mutex
    // and released it; the slot mutex is acquired on its own here.
    detail::GpuSlot &slot = detail::gpuSlot(ctx->gpu_index);
    std::lock_guard<std::mutex> dev(slot.mu);
    dc.device = slot.gpu->snapshot();
    return dc;
}

void
restoreDriverState(CUcontext ctx, const DriverCheckpoint &dc)
{
    NVBIT_ASSERT(ctx != nullptr, "restoreDriverState needs a context");
    detail::StreamService &svc = detail::StreamService::instance();
    NVBIT_ASSERT(svc.paused(),
                 "driver restore requires a paused stream service");
    svc.restoreQueues(ctx, dc.queues);
    detail::restoreAccounting(ctx, dc.accounting);
    if (!dc.device.mid_launch) {
        detail::GpuSlot &slot = detail::gpuSlot(ctx->gpu_index);
        std::lock_guard<std::mutex> dev(slot.mu);
        slot.gpu->restore(dc.device);
    }
    // Mid-launch capsules: resumeCheckpointedLaunch restores the
    // device as part of finishing the interrupted launch.
}

void
armDeviceCheckpoint(CUcontext ctx, uint64_t cta_index, uint64_t round,
                    sim::GpuState *out)
{
    NVBIT_ASSERT(ctx != nullptr, "armDeviceCheckpoint needs a context");
    detail::GpuSlot &slot = detail::gpuSlot(ctx->gpu_index);
    std::lock_guard<std::mutex> dev(slot.mu);
    slot.gpu->armCheckpoint(cta_index, round, out);
}

CUresult
resumeCheckpointedLaunch(CUcontext ctx, CUfunction fn,
                         const sim::GpuState &st)
{
    NVBIT_ASSERT(ctx != nullptr,
                 "resumeCheckpointedLaunch needs a context");
    return detail::runLaunch(ctx, fn, ctx->gpu_index,
                             [&](sim::GpuDevice &gpu) {
                                 return gpu.resumeLaunch(st);
                             });
}

} // namespace nvbit::cudrv
