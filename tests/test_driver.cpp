/**
 * @file
 * Integration tests for the CUDA-driver-like layer: module loading
 * (binary + JIT), launches, memory API, globals, relocation of calls,
 * and interposer callbacks.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <vector>

#include "driver/callback.hpp"
#include "driver/internal.hpp"
#include "driver/module_image.hpp"
#include "ptx/compiler.hpp"

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

class DriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetDriver();
        checkCu(cuInit(0), "cuInit");
        checkCu(cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");
    }

    void
    TearDown() override
    {
        setDriverInterposer(nullptr, nullptr);
        resetDriver();
    }

    /** The context still loads, launches and reads back vecadd. */
    void
    expectVecAddRuns()
    {
        CUmodule mod = nullptr;
        ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
        CUfunction fn = nullptr;
        ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
        uint32_t n = 128;
        std::vector<float> host(n, 1.0f);
        CUdeviceptr d = 0;
        ASSERT_EQ(cuMemAlloc(&d, n * 4), CUDA_SUCCESS);
        ASSERT_EQ(cuMemcpyHtoD(d, host.data(), n * 4), CUDA_SUCCESS);
        void *params[] = {&d, &d, &d, &n};
        ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1, 0, nullptr, params,
                                 nullptr),
                  CUDA_SUCCESS);
        ASSERT_EQ(cuMemcpyDtoH(host.data(), d, n * 4), CUDA_SUCCESS);
        EXPECT_FLOAT_EQ(host[0], 2.0f);
        EXPECT_FLOAT_EQ(host[n - 1], 2.0f);
    }

    CUcontext ctx_ = nullptr;
};

TEST_F(DriverTest, VecAddEndToEndViaJit)
{
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);

    const uint32_t n = 1000;
    std::vector<float> a(n), b(n), c(n, 0.0f);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(i);
        b[i] = 2.0f * static_cast<float>(i);
    }
    CUdeviceptr da, db, dc;
    ASSERT_EQ(cuMemAlloc(&da, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&db, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&dc, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoD(da, a.data(), n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoD(db, b.data(), n * 4), CUDA_SUCCESS);

    void *params[] = {&da, &db, &dc, const_cast<uint32_t *>(&n)};
    ASSERT_EQ(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0,
                             nullptr, params, nullptr),
              CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyDtoH(c.data(), dc, n * 4), CUDA_SUCCESS);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(c[i], 3.0f * static_cast<float>(i)) << i;

    const sim::LaunchStats &st = lastLaunchStats();
    EXPECT_GT(st.thread_instrs, n * 10);
    EXPECT_EQ(st.ctas, (n + 127) / 128);
}

TEST_F(DriverTest, BinaryImageRoundTripMatchesJit)
{
    ptx::CompiledModule cm =
        ptx::compile(kVecAdd, device().family());
    std::vector<uint8_t> image = serializeModule(cm);
    ASSERT_TRUE(isBinaryImage(image.data(), image.size()));

    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, image.data(), image.size()),
              CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
    EXPECT_EQ(fn->num_regs, cm.functions[0].num_regs);
    EXPECT_EQ(fn->code_size, cm.functions[0].code.size() *
                                 isa::instrBytes(device().family()));
    EXPECT_EQ(fn->params.size(), 4u);
}

TEST_F(DriverTest, GlobalsAllocatedAndAddressable)
{
    const char *src = R"(
.global .u32 counter;
.visible .entry bump()
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    mov.u64 %rd1, counter;
    atom.global.add.u32 %r1, [%rd1], 1;
    exit;
}
)";
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, src, 0), CUDA_SUCCESS);
    CUdeviceptr gptr;
    size_t gsize;
    ASSERT_EQ(cuModuleGetGlobal(&gptr, &gsize, mod, "counter"),
              CUDA_SUCCESS);
    EXPECT_EQ(gsize, 4u);

    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "bump"), CUDA_SUCCESS);
    ASSERT_EQ(cuLaunchKernel(fn, 2, 1, 1, 64, 1, 1, 0, nullptr, nullptr,
                             nullptr),
              CUDA_SUCCESS);
    uint32_t v = 0;
    ASSERT_EQ(cuMemcpyDtoH(&v, gptr, 4), CUDA_SUCCESS);
    EXPECT_EQ(v, 128u);
}

TEST_F(DriverTest, DeviceFunctionCallAcrossTheAbi)
{
    const char *src = R"(
.func (.param .u32 out) triple(.param .u32 x)
{
    .reg .u32 %a<4>;
    ld.param.u32 %a1, [x];
    mul.lo.u32 %a2, %a1, 3;
    st.param.u32 [out], %a2;
    ret;
}
.visible .entry k(.param .u64 dst)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    mov.u32 %r1, %tid.x;
    call (%r2), triple, (%r1);
    ld.param.u64 %rd1, [dst];
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
)";
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, src, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "k"), CUDA_SUCCESS);
    ASSERT_EQ(fn->related.size(), 1u);
    EXPECT_EQ(fn->related[0]->name, "triple");
    // triple is a leaf with no locals, so its frame is zero and the
    // worst-case stack equals the caller's own frame.
    CUfunc_st *callee = fn->related[0];
    EXPECT_EQ(fn->total_stack, fn->frame_bytes + callee->frame_bytes);

    CUdeviceptr dst;
    ASSERT_EQ(cuMemAlloc(&dst, 32 * 4), CUDA_SUCCESS);
    void *params[] = {&dst};
    ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_SUCCESS);
    uint32_t out[32];
    ASSERT_EQ(cuMemcpyDtoH(out, dst, sizeof(out)), CUDA_SUCCESS);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], i * 3) << i;
}

TEST_F(DriverTest, UnresolvedCallFailsToLoad)
{
    const char *src = R"(
.visible .entry k()
{
    .reg .u32 %r<3>;
    mov.u32 %r1, 1;
    call (%r2), missing_func, (%r1);
    exit;
}
)";
    CUmodule mod;
    EXPECT_EQ(cuModuleLoadData(&mod, src, 0), CUDA_ERROR_NOT_FOUND);
}

TEST_F(DriverTest, MalformedPtxRejected)
{
    CUmodule mod;
    EXPECT_EQ(cuModuleLoadData(&mod, "this is not ptx %%%", 0),
              CUDA_ERROR_INVALID_IMAGE);
}

// PTX that used to panic (undefined label), hang (register range) or
// load with a wrapped or narrowed size is an invalid image, and the
// context stays usable.
TEST_F(DriverTest, PtxPastFrontEndCapsRejected)
{
    for (const char *src : {
             ".visible .entry k() {\n.reg .pred %p<2>;\n"
             "@%p1 bra NOWHERE;\nexit;\n}\n",
             ".visible .entry k() {\n.reg .f32 %f<99999999999>;\n"
             "exit;\n}\n",
             ".global .b32 g[4611686018427387905];\n"
             ".visible .entry k() { exit; }\n",
             ".visible .entry k() {\n.shared .b8 s[99999999999];\n"
             "exit;\n}\n"}) {
        CUmodule mod = nullptr;
        EXPECT_EQ(cuModuleLoadData(&mod, src, 0), CUDA_ERROR_INVALID_IMAGE)
            << src;
    }
    expectVecAddRuns();
}

TEST_F(DriverTest, TruncatedBinaryImageRejected)
{
    ptx::CompiledModule cm = ptx::compile(kVecAdd, device().family());
    std::vector<uint8_t> image = serializeModule(cm);
    image.resize(image.size() / 2);
    CUmodule mod;
    EXPECT_EQ(cuModuleLoadData(&mod, image.data(), image.size()),
              CUDA_ERROR_INVALID_IMAGE);
}

/** A module with a global and a call relocation, the two kinds of
 *  field placement patches. */
const char *kGlobalAndCall = R"(
.global .u32 counter;
.func (.param .u32 out) triple(.param .u32 x)
{
    .reg .u32 %a<4>;
    ld.param.u32 %a1, [x];
    mul.lo.u32 %a2, %a1, 3;
    st.param.u32 [out], %a2;
    ret;
}
.visible .entry k()
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<2>;
    mov.u32 %r1, %tid.x;
    call (%r2), triple, (%r1);
    mov.u64 %rd1, counter;
    atom.global.add.u32 %r3, [%rd1], %r2;
    exit;
}
)";

class MalformedImageTest : public DriverTest
{
  protected:
    /**
     * The intact image of kGlobalAndCall loads; after @p corrupt edits
     * one field it must be rejected as CUDA_ERROR_INVALID_IMAGE, with
     * the context still able to load and run a kernel.
     */
    void
    expectRejected(const std::function<void(ptx::CompiledModule &)> &corrupt)
    {
        expectImageRejected([&](ptx::CompiledModule &cm,
                                std::vector<uint8_t> &image) {
            corrupt(cm);
            image = serializeModule(cm);
        });
    }

    /** Like expectRejected, with @p corrupt free to edit the serialised
     *  bytes of the intact image as well. */
    void
    expectImageRejected(
        const std::function<void(ptx::CompiledModule &,
                                 std::vector<uint8_t> &)> &corrupt)
    {
        ptx::CompiledModule cm =
            ptx::compile(kGlobalAndCall, device().family());
        std::vector<uint8_t> image = serializeModule(cm);
        CUmodule mod = nullptr;
        ASSERT_EQ(cuModuleLoadData(&mod, image.data(), image.size()),
                  CUDA_SUCCESS);

        corrupt(cm, image);
        EXPECT_EQ(cuModuleLoadData(&mod, image.data(), image.size()),
                  CUDA_ERROR_INVALID_IMAGE);

        expectVecAddRuns();
    }

    /** The entry kernel of kGlobalAndCall, with one u32 parameter. */
    static ptx::CompiledFunction &
    entryWithParam(ptx::CompiledModule &cm)
    {
        for (ptx::CompiledFunction &f : cm.functions) {
            if (f.is_entry) {
                f.params = {{"p", ptx::ParamKind::U32, 0}};
                f.param_bytes = 4;
                return f;
            }
        }
        throw std::runtime_error("kGlobalAndCall has no entry");
    }
};

TEST_F(MalformedImageTest, GlobalInitialiserLongerThanGlobalRejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        ptx::GlobalVar &g = cm.globals.at(0);
        g.init.assign(g.size_bytes + 4096, 0xAB);
    });
}

TEST_F(MalformedImageTest, GlobalAddressSlotPastBank1Rejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        cm.globals.at(0).addr_slot =
            static_cast<uint32_t>(cm.bank1.size());
    });
}

TEST_F(MalformedImageTest, RelocationOutsideFunctionCodeRejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        for (ptx::CompiledFunction &f : cm.functions)
            if (!f.relocs.empty())
                f.relocs[0].instr_index =
                    static_cast<uint32_t>(f.code.size());
    });
}

TEST_F(MalformedImageTest, ParamPastParamBytesRejected)
{
    // Loaded, this image made cuLaunchKernel copy the parameter 16 MiB
    // past the end of bank 0.
    expectRejected([](ptx::CompiledModule &cm) {
        entryWithParam(cm).params[0].bank0_offset = 16u << 20;
    });
}

TEST_F(MalformedImageTest, UnknownParamKindRejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        entryWithParam(cm).params[0].kind = static_cast<ptx::ParamKind>(7);
    });
}

TEST_F(MalformedImageTest, ParamBytesPastConstBankRejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        entryWithParam(cm).param_bytes = ptx::kMaxConstBytes + 4;
    });
}

TEST_F(MalformedImageTest, SharedBytesPastCapRejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        cm.functions.at(0).shared_bytes = 0xFFFFFF00u;
    });
}

TEST_F(MalformedImageTest, FrameBytesPastCapRejected)
{
    expectRejected([](ptx::CompiledModule &cm) {
        cm.functions.at(0).frame_bytes = 0x7FFFFFF0u;
    });
}

TEST_F(MalformedImageTest, CodeNotWholeInstructionsRejected)
{
    expectImageRejected([](ptx::CompiledModule &cm,
                           std::vector<uint8_t> &image) {
        // The last function's code is the image's last field: a u32
        // length, then the bytes.  Drop one byte from both.
        const size_t code = cm.functions.back().code.size() *
                            isa::instrBytes(cm.family);
        ASSERT_GT(code, 0u);
        const size_t at = image.size() - code - 4;
        const uint32_t len = static_cast<uint32_t>(code - 1);
        std::memcpy(image.data() + at, &len, sizeof(len));
        image.pop_back();
    });
}

TEST_F(MalformedImageTest, UnknownFamilyRejected)
{
    // The family byte follows the 8-byte magic and the u32 version.
    // The rest of the image is SM7x, so only the family byte is wrong.
    constexpr size_t kFamilyByte = 8 + 4;
    for (uint8_t family : {uint8_t{2}, uint8_t{0xFF}}) {
        SCOPED_TRACE(static_cast<int>(family));
        expectImageRejected(
            [&](ptx::CompiledModule &cm, std::vector<uint8_t> &image) {
                cm = ptx::compile(kGlobalAndCall, isa::ArchFamily::SM7x);
                image = serializeModule(cm);
                ASSERT_EQ(image.at(kFamilyByte),
                          static_cast<uint8_t>(isa::ArchFamily::SM7x));
                image.at(kFamilyByte) = family;
                // The parser rejects it; placement never sees it.
                ModuleData data;
                EXPECT_FALSE(
                    deserializeModule(image.data(), image.size(), data));
            });
    }
}

TEST_F(MalformedImageTest, OtherFamilyImageRejected)
{
    // Well formed, but built for the family the device does not run.
    const isa::ArchFamily other = device().family() == isa::ArchFamily::SM5x
                                      ? isa::ArchFamily::SM7x
                                      : isa::ArchFamily::SM5x;
    expectRejected([&](ptx::CompiledModule &cm) {
        cm = ptx::compile(kGlobalAndCall, other);
    });
}

TEST_F(DriverTest, LaunchSharedMemoryMustFitOneSm)
{
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
    uint32_t n = 32;
    CUdeviceptr d = 0;
    ASSERT_EQ(cuMemAlloc(&d, n * 4), CUDA_SUCCESS);
    void *params[] = {&d, &d, &d, &n};
    const size_t smem = device().config().smem_per_sm;
    // 16 MiB of dynamic shared memory on a 96 KiB SM; then a size that
    // wraps a 32-bit sum with any static shared bytes.
    for (unsigned dyn : {16u << 20, 0xFFFFFFFFu,
                         static_cast<unsigned>(smem) + 1}) {
        EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1, dyn, nullptr,
                                 params, nullptr),
                  CUDA_ERROR_INVALID_VALUE)
            << dyn;
    }
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1,
                             static_cast<unsigned>(smem), nullptr, params,
                             nullptr),
              CUDA_SUCCESS);
    expectVecAddRuns();
}

TEST_F(DriverTest, LaunchValidation)
{
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
    // Too many threads per block.
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 2048, 1, 1, 0, nullptr,
                             nullptr, nullptr),
              CUDA_ERROR_INVALID_VALUE);
    // Missing parameters.
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0, nullptr, nullptr,
                             nullptr),
              CUDA_ERROR_INVALID_VALUE);
}

// --- Interposer callbacks -------------------------------------------------

struct CbLog {
    std::vector<std::pair<CallbackId, bool>> events;
};

void
logCb(void *user, CUcontext, bool is_exit, CallbackId cbid, const char *,
      void *, CUresult *)
{
    static_cast<CbLog *>(user)->events.emplace_back(cbid, is_exit);
}

TEST_F(DriverTest, InterposerSeesEntryAndExitOfEveryApi)
{
    CbLog log;
    setDriverInterposer(&logCb, &log);

    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
    CUdeviceptr d;
    ASSERT_EQ(cuMemAlloc(&d, 64), CUDA_SUCCESS);
    setDriverInterposer(nullptr, nullptr);

    ASSERT_EQ(log.events.size(), 6u);
    EXPECT_EQ(log.events[0],
              (std::pair{CallbackId::cuModuleLoadData, false}));
    EXPECT_EQ(log.events[1],
              (std::pair{CallbackId::cuModuleLoadData, true}));
    EXPECT_EQ(log.events[2],
              (std::pair{CallbackId::cuModuleGetFunction, false}));
    EXPECT_EQ(log.events[4], (std::pair{CallbackId::cuMemAlloc, false}));
}

TEST_F(DriverTest, LaunchCallbackCarriesParamsAndCanObserveFunction)
{
    struct LaunchSeen {
        CUfunction f = nullptr;
        unsigned grid_x = 0;
        int entries = 0, exits = 0;
    } seen;
    setDriverInterposer(
        [](void *user, CUcontext, bool is_exit, CallbackId cbid,
           const char *, void *params, CUresult *) {
            if (cbid != CallbackId::cuLaunchKernel)
                return;
            auto *s = static_cast<LaunchSeen *>(user);
            auto *p = static_cast<cuLaunchKernel_params *>(params);
            s->f = p->f;
            s->grid_x = p->gridDimX;
            if (is_exit)
                ++s->exits;
            else
                ++s->entries;
        },
        &seen);

    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
    CUdeviceptr da;
    ASSERT_EQ(cuMemAlloc(&da, 256 * 4), CUDA_SUCCESS);
    uint32_t n = 256;
    void *params[] = {&da, &da, &da, &n};
    ASSERT_EQ(cuLaunchKernel(fn, 2, 1, 1, 128, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_SUCCESS);
    setDriverInterposer(nullptr, nullptr);

    EXPECT_EQ(seen.f, fn);
    EXPECT_EQ(seen.grid_x, 2u);
    EXPECT_EQ(seen.entries, 1);
    EXPECT_EQ(seen.exits, 1);
    EXPECT_EQ(seen.f->launch_count, 1u);
}

TEST_F(DriverTest, PerModuleStatsAttributeInstructions)
{
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);
    CUdeviceptr d;
    ASSERT_EQ(cuMemAlloc(&d, 1024 * 4), CUDA_SUCCESS);
    uint32_t n = 1024;
    void *params[] = {&d, &d, &d, &n};
    ASSERT_EQ(cuLaunchKernel(fn, 8, 1, 1, 128, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_SUCCESS);
    const auto ms = perModuleStats();
    ASSERT_EQ(ms.count(mod), 1u);
    EXPECT_EQ(ms.at(mod).thread_instrs,
              deviceTotalStats().thread_instrs);
}

TEST_F(DriverTest, ModuleUnloadFreesDeviceMemory)
{
    size_t before = device().memory().bytesAllocated();
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    EXPECT_GT(device().memory().bytesAllocated(), before);
    ASSERT_EQ(cuModuleUnload(mod), CUDA_SUCCESS);
    EXPECT_EQ(device().memory().bytesAllocated(), before);
}

} // namespace
} // namespace nvbit::cudrv

namespace nvbit::cudrv {
namespace {

TEST_F(DriverTest, FuncAttributesAndMemInfo)
{
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);

    int regs = 0, smem = -1, local = -1, maxthreads = 0;
    EXPECT_EQ(cuFuncGetAttribute(&regs, CU_FUNC_ATTRIBUTE_NUM_REGS, fn),
              CUDA_SUCCESS);
    EXPECT_EQ(cuFuncGetAttribute(&smem,
                                 CU_FUNC_ATTRIBUTE_SHARED_SIZE_BYTES,
                                 fn),
              CUDA_SUCCESS);
    EXPECT_EQ(cuFuncGetAttribute(&local,
                                 CU_FUNC_ATTRIBUTE_LOCAL_SIZE_BYTES, fn),
              CUDA_SUCCESS);
    EXPECT_EQ(cuFuncGetAttribute(&maxthreads,
                                 CU_FUNC_ATTRIBUTE_MAX_THREADS_PER_BLOCK,
                                 fn),
              CUDA_SUCCESS);
    EXPECT_GT(regs, 4);
    EXPECT_EQ(smem, 0);
    EXPECT_EQ(local, 0);
    EXPECT_EQ(maxthreads, 1024);

    size_t free_b = 0, total_b = 0;
    ASSERT_EQ(cuMemGetInfo(&free_b, &total_b), CUDA_SUCCESS);
    EXPECT_GT(total_b, 0u);
    EXPECT_LT(free_b, total_b);

    CUdeviceptr d;
    ASSERT_EQ(cuMemAlloc(&d, 16 * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemsetD32(d, 0xABCD1234u, 16), CUDA_SUCCESS);
    uint32_t host[16];
    ASSERT_EQ(cuMemcpyDtoH(host, d, sizeof(host)), CUDA_SUCCESS);
    for (uint32_t v : host)
        EXPECT_EQ(v, 0xABCD1234u);
}

// Regression: cuLaunchKernel used to ignore its CUstream argument
// entirely.  The stream must route the launch (null = legacy default
// stream, explicit = that stream's queue) and invalid handles must be
// rejected, not silently treated as the null stream.
TEST_F(DriverTest, LaunchStreamArgumentIsRoutedAndValidated)
{
    CUmodule mod;
    ASSERT_EQ(cuModuleLoadData(&mod, kVecAdd, 0), CUDA_SUCCESS);
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, mod, "vecadd"), CUDA_SUCCESS);

    const uint32_t n = 64;
    std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 0.0f);
    CUdeviceptr da, db, dc;
    ASSERT_EQ(cuMemAlloc(&da, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&db, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&dc, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoD(da, a.data(), n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoD(db, b.data(), n * 4), CUDA_SUCCESS);
    void *params[] = {&da, &db, &dc, const_cast<uint32_t *>(&n)};

    // A destroyed stream handle is invalid, not the null stream.
    CUstream dead;
    ASSERT_EQ(cuStreamCreate(&dead, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(dead), CUDA_SUCCESS);
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1, 0, dead, params,
                             nullptr),
              CUDA_ERROR_INVALID_HANDLE);

    // A stream of another context is invalid from this one.
    CUcontext other;
    ASSERT_EQ(cuCtxCreate(&other, 0, 0), CUDA_SUCCESS);
    CUstream foreign;
    ASSERT_EQ(cuStreamCreate(&foreign, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuCtxSetCurrent(ctx_), CUDA_SUCCESS);
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1, 0, foreign, params,
                             nullptr),
              CUDA_ERROR_INVALID_HANDLE);
    ASSERT_EQ(cuCtxDestroy(other), CUDA_SUCCESS);

    // A live stream of this context routes the launch; results appear
    // after synchronising that stream.
    CUstream stream;
    ASSERT_EQ(cuStreamCreate(&stream, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1, 0, stream, params,
                             nullptr),
              CUDA_SUCCESS);
    ASSERT_EQ(cuStreamSynchronize(stream), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyDtoH(c.data(), dc, n * 4), CUDA_SUCCESS);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(c[i], 3.0f) << i;

    // The null stream keeps legacy synchronous semantics: the result
    // is visible immediately after cuLaunchKernel returns.
    ASSERT_EQ(cuMemsetD8(dc, 0, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, n, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyDtoH(c.data(), dc, n * 4), CUDA_SUCCESS);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(c[i], 3.0f) << i;
    ASSERT_EQ(cuStreamDestroy(stream), CUDA_SUCCESS);
}

} // namespace
} // namespace nvbit::cudrv
