#include "tools/fault_injection.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace nvbit::tools {

namespace {

/**
 * Injected AFTER the armed instruction: every executing thread claims
 * a dynamic occurrence number; the selected one XORs the chosen bit
 * into the just-written destination register through the Device API
 * (the write is permanent, exactly like the WFFT32 emulation).
 */
const char *kPtx = R"(
.global .u64 finj_occ;
.global .u64 finj_done;
.func finj_probe(.param .u32 dstreg, .param .u32 occurrence,
                 .param .u32 bit)
{
    .reg .u32 %a<8>;
    .reg .u64 %rd<8>;
    .reg .pred %p<3>;
    mov.u64 %rd1, finj_occ;
    mov.u64 %rd2, 1;
    atom.global.add.u64 %rd3, [%rd1], %rd2;   // my occurrence number
    ld.param.u32 %a1, [occurrence];
    cvt.u64.u32 %rd4, %a1;
    setp.ne.u64 %p1, %rd3, %rd4;
    @%p1 bra SKIP;

    ld.param.u32 %a2, [dstreg];
    call (%a3), nvbit_read_reg, (%a2);
    ld.param.u32 %a4, [bit];
    mov.u32 %a5, 1;
    shl.b32 %a5, %a5, %a4;
    xor.b32 %a3, %a3, %a5;
    call nvbit_write_reg, (%a2, %a3);

    mov.u64 %rd5, finj_done;
    mov.u64 %rd6, 1;
    st.global.u64 [%rd5], %rd6;
SKIP:
    ret;
}
)";

const char *
originName(cudrv::CUexceptionOrigin o)
{
    switch (o) {
    case cudrv::CU_EXCEPTION_ORIGIN_APP: return "app";
    case cudrv::CU_EXCEPTION_ORIGIN_TOOL: return "tool";
    default: return "unknown";
    }
}

} // namespace

FaultInjectionTool::FaultInjectionTool(Target target)
    : target_(std::move(target))
{
    exportDeviceFunctions(kPtx);
}

void
FaultInjectionTool::instrumentFunction(CUcontext ctx, CUfunction f)
{
    for (Instr *i : nvbit_get_instrs(ctx, f)) {
        if (std::string(i->getOpcode())
                .rfind(target_.opcode_prefix, 0) != 0) {
            continue;
        }
        if (sites_seen_++ != target_.site_index)
            continue;
        if (i->getNumOperands() < 1 ||
            i->getOperand(0)->type != Instr::REG) {
            warn("fault-injection target has no register destination: "
                 "%s", i->getSass());
            continue;
        }
        armed_sass_ = i->getSass();
        nvbit_insert_call(i, "finj_probe", IPOINT_AFTER);
        nvbit_add_call_arg_imm32(
            i, static_cast<uint32_t>(i->getOperand(0)->val[0]));
        nvbit_add_call_arg_imm32(i, target_.occurrence);
        nvbit_add_call_arg_imm32(i, target_.bit);
    }
}

bool
FaultInjectionTool::injected() const
{
    uint64_t v = 0;
    nvbit_read_tool_global("finj_done", &v, sizeof(v));
    return v != 0;
}

uint64_t
FaultInjectionTool::occurrencesSeen() const
{
    uint64_t v = 0;
    nvbit_read_tool_global("finj_occ", &v, sizeof(v));
    return v;
}

void
FaultInjectionTool::nvbit_at_exception(CUcontext /*ctx*/,
                                       const cudrv::CUexceptionInfo &info)
{
    saw_exception_ = true;
    exc_info_ = info;
}

// --- Campaign runner -----------------------------------------------------

const char *
faultOutcomeName(FaultOutcome o)
{
    switch (o) {
    case FaultOutcome::Masked: return "masked";
    case FaultOutcome::SDC: return "sdc";
    case FaultOutcome::DUE: return "due";
    case FaultOutcome::Timeout: return "timeout";
    }
    return "?";
}

size_t
CampaignReport::countOf(FaultOutcome o) const
{
    return static_cast<size_t>(
        std::count_if(injections.begin(), injections.end(),
                      [o](const InjectionResult &r) {
                          return r.outcome == o;
                      }));
}

std::string
CampaignReport::toJson() const
{
    std::string j = "{\n";
    j += strfmt("  \"sites\": %u,\n", sites);
    j += strfmt("  \"summary\": {\"masked\": %zu, \"sdc\": %zu, "
                "\"due\": %zu, \"timeout\": %zu, \"total\": %zu},\n",
                countOf(FaultOutcome::Masked), countOf(FaultOutcome::SDC),
                countOf(FaultOutcome::DUE), countOf(FaultOutcome::Timeout),
                injections.size());
    j += "  \"injections\": [\n";
    for (size_t k = 0; k < injections.size(); ++k) {
        const InjectionResult &r = injections[k];
        const char *err = nullptr;
        cudrv::cuGetErrorString(r.status, &err);
        j += strfmt("    {\"site\": %u, \"occurrence\": %u, "
                    "\"bit\": %u, \"injected\": %s, "
                    "\"outcome\": \"%s\", \"status\": %d, "
                    "\"status_str\": \"%s\", \"trap\": \"%s\", "
                    "\"origin\": \"%s\", \"sass\": %s}%s\n",
                    r.target.site_index, r.target.occurrence,
                    r.target.bit, r.injected ? "true" : "false",
                    faultOutcomeName(r.outcome),
                    static_cast<int>(r.status),
                    err ? err : "unknown error code",
                    sim::trapCodeName(r.trap_code), originName(r.origin),
                    obs::jsonQuote(r.armed_sass).c_str(),
                    k + 1 < injections.size() ? "," : "");
    }
    j += "  ]\n}\n";
    return j;
}

CampaignReport
FaultCampaignRunner::run(const AppFn &app) const
{
    CampaignReport report;
    if (cfg_.watchdog_cycles) {
        ::setenv("NVBIT_SIM_WATCHDOG_CYCLES",
                 std::to_string(cfg_.watchdog_cycles).c_str(), 1);
    }

    // Golden run: a probe tool counts candidate sites without arming
    // anything (site_index UINT32_MAX never matches) and captures the
    // reference output.
    std::vector<uint8_t> golden;
    {
        FaultInjectionTool::Target probe;
        probe.opcode_prefix = cfg_.opcode_prefix;
        probe.site_index = UINT32_MAX;
        FaultInjectionTool tool(probe);
        AppResult r;
        runApp(tool, [&] { r = app(); });
        report.sites = tool.sitesSeen();
        golden = std::move(r.output);
        if (r.status != cudrv::CUDA_SUCCESS) {
            warn("fault campaign: golden run itself failed (%d); "
                 "classification will be unreliable",
                 static_cast<int>(r.status));
        }
    }

    const uint32_t sites = std::min(report.sites, cfg_.max_sites);
    for (uint32_t site = 0; site < sites; ++site) {
        for (uint32_t occ : cfg_.occurrences) {
            for (uint32_t bit : cfg_.bits) {
                InjectionResult res;
                res.target = {cfg_.opcode_prefix, site, occ, bit};
                FaultInjectionTool tool(res.target);
                AppResult r;
                runApp(tool, [&] {
                    r = app();
                    // A trap leaves the context sticky-poisoned; reset
                    // the device so the tool globals (exempt from the
                    // pristine-code restore) stay readable for the
                    // post-mortem below.
                    if (r.status != cudrv::CUDA_SUCCESS)
                        cudrv::cuDevicePrimaryCtxReset(0);
                    res.injected = tool.injected();
                });
                res.status = r.status;
                res.armed_sass = tool.armedSass();
                if (tool.sawException()) {
                    res.trap_code = tool.exceptionInfo().exc.code;
                    res.origin = tool.exceptionInfo().origin;
                }
                if (r.status != cudrv::CUDA_SUCCESS) {
                    bool timed_out =
                        res.trap_code == sim::TrapCode::WatchdogTimeout ||
                        r.status == cudrv::CUDA_ERROR_LAUNCH_TIMEOUT;
                    res.outcome = timed_out ? FaultOutcome::Timeout
                                            : FaultOutcome::DUE;
                } else if (!res.injected || r.output == golden) {
                    res.outcome = FaultOutcome::Masked;
                } else {
                    res.outcome = FaultOutcome::SDC;
                }
                report.injections.push_back(std::move(res));
            }
        }
    }

    if (cfg_.watchdog_cycles)
        ::unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
    return report;
}

// --- Multi-tenant chaos campaign -----------------------------------------

namespace {

/** Victim workload: c[i] = a[i] + b[i]. */
const char *kChaosVecAddPtx = R"(
.visible .entry chaos_vecadd(.param .u64 A, .param .u64 B,
                             .param .u64 C, .param .u32 n)
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

/** Attacker: stores far past any allocation (always traps). */
const char *kChaosOobPtx = R"(
.visible .entry chaos_oob(.param .u64 out)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u64 %rd2, 1073741824;
    add.u64 %rd3, %rd1, %rd2;
    mov.u32 %r1, 1;
    st.global.u32 [%rd3], %r1;
    exit;
}
)";

/** Attacker: infinite loop, reclaimed by the cycle watchdog. */
const char *kChaosLoopPtx = R"(
.visible .entry chaos_loop()
{
LOOP:
    bra LOOP;
    exit;
}
)";

/** Spammer payload: one tiny store. */
const char *kChaosTinyPtx = R"(
.visible .entry chaos_tiny(.param .u64 out)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    exit;
}
)";

/** Deterministic per-(tenant, round) input pattern, so a cross-tenant
 *  corruption cannot be masked by coincidentally equal data. */
void
fillChaosInputs(uint32_t tenant, uint32_t round, std::vector<float> &a,
                std::vector<float> &b)
{
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>((tenant + 1) * 1000 + i);
        b[i] = static_cast<float>((round + 1) * 100 + i % 17);
    }
}

cudrv::CUfunction
loadChaosKernel(const char *ptx, const char *name)
{
    cudrv::CUmodule mod = nullptr;
    cudrv::checkCu(cudrv::cuModuleLoadData(&mod, ptx, 0),
                   "chaos module load");
    cudrv::CUfunction fn = nullptr;
    cudrv::checkCu(cudrv::cuModuleGetFunction(&fn, mod, name),
                   "chaos get function");
    return fn;
}

/**
 * One round of the victim workload on @p ctx's explicit stream:
 * async upload, async launch, async readback, event-synchronised.
 * @return the worst CUresult seen; @p out receives the result bytes.
 */
cudrv::CUresult
victimRound(uint32_t tenant, uint32_t round, uint32_t elems,
            cudrv::CUfunction fn, cudrv::CUstream stream,
            cudrv::CUevent ev, cudrv::CUdeviceptr da,
            cudrv::CUdeviceptr db, cudrv::CUdeviceptr dc,
            std::vector<uint8_t> &out)
{
    using namespace cudrv;
    std::vector<float> a(elems), b(elems), c(elems, 0.0f);
    fillChaosInputs(tenant, round, a, b);
    CUresult worst = CUDA_SUCCESS;
    auto track = [&](CUresult r) {
        if (worst == CUDA_SUCCESS)
            worst = r;
        return r;
    };
    // Bounded-queue contract: a full queue is a retryable condition,
    // not an error — drain and re-issue.
    auto retry = [&](auto &&call) {
        for (int attempt = 0; attempt < 64; ++attempt) {
            CUresult r = call();
            if (r != CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES)
                return track(r);
            cuStreamSynchronize(stream);
        }
        return track(CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES);
    };
    const size_t bytes = elems * sizeof(float);
    retry([&] { return cuMemcpyHtoDAsync(da, a.data(), bytes, stream); });
    retry([&] { return cuMemcpyHtoDAsync(db, b.data(), bytes, stream); });
    uint32_t n = elems;
    void *params[] = {&da, &db, &dc, &n};
    retry([&] {
        return cuLaunchKernel(fn, (elems + 127) / 128, 1, 1, 128, 1, 1,
                              0, stream, params, nullptr);
    });
    retry([&] { return cuMemcpyDtoHAsync(c.data(), dc, bytes, stream); });
    track(cuEventRecord(ev, stream));
    track(cuEventSynchronize(ev));
    out.resize(bytes);
    std::memcpy(out.data(), c.data(), bytes);
    return worst;
}

} // namespace

const char *
chaosRoleName(ChaosRole r)
{
    switch (r) {
    case ChaosRole::Victim: return "victim";
    case ChaosRole::Faulter: return "faulter";
    case ChaosRole::Hanger: return "hanger";
    case ChaosRole::Spammer: return "spammer";
    }
    return "?";
}

bool
ChaosReport::victimsHealthy() const
{
    for (const ChaosTenantReport &t : tenants) {
        if (t.role != ChaosRole::Victim)
            continue;
        if (!t.outputs_identical || t.spurious_errors)
            return false;
    }
    return true;
}

bool
ChaosReport::adversariesContained() const
{
    for (const ChaosTenantReport &t : tenants) {
        if (t.role == ChaosRole::Faulter || t.role == ChaosRole::Hanger) {
            if (t.faults == 0 || t.resets == 0)
                return false;
        }
        if (t.role == ChaosRole::Spammer && t.launches == 0)
            return false;
    }
    return true;
}

std::string
ChaosReport::toJson() const
{
    std::string j = "{\n";
    j += strfmt("  \"victims_healthy\": %s,\n",
                victimsHealthy() ? "true" : "false");
    j += strfmt("  \"adversaries_contained\": %s,\n",
                adversariesContained() ? "true" : "false");
    j += "  \"tenants\": [\n";
    for (size_t k = 0; k < tenants.size(); ++k) {
        const ChaosTenantReport &t = tenants[k];
        j += strfmt("    {\"tenant\": %u, \"role\": \"%s\", "
                    "\"launches\": %llu, \"faults\": %llu, "
                    "\"rejects\": %llu, \"resets\": %llu, "
                    "\"outputs_identical\": %s, "
                    "\"spurious_errors\": %s}%s\n",
                    t.index, chaosRoleName(t.role),
                    static_cast<unsigned long long>(t.launches),
                    static_cast<unsigned long long>(t.faults),
                    static_cast<unsigned long long>(t.rejects),
                    static_cast<unsigned long long>(t.resets),
                    t.outputs_identical ? "true" : "false",
                    t.spurious_errors ? "true" : "false",
                    k + 1 < tenants.size() ? "," : "");
    }
    j += "  ]\n}\n";
    return j;
}

ChaosReport
FaultCampaignRunner::runChaos(const ChaosConfig &cfg)
{
    using namespace cudrv;
    ChaosReport report;

    // Same device configuration for both passes: the watchdog bounds
    // hang reclamation, cold launches decouple per-launch cache state
    // from interleaved neighbours, the shallow queue lets the spammer
    // actually hit backpressure.
    ::setenv("NVBIT_SIM_WATCHDOG_CYCLES",
             std::to_string(cfg.watchdog_cycles).c_str(), 1);
    ::setenv("NVBIT_SIM_COLD_LAUNCH", "1", 1);
    ::setenv("NVBIT_SIM_STREAM_QUEUE_DEPTH",
             std::to_string(cfg.queue_depth).c_str(), 1);

    // Solo pass: each victim runs alone; its per-round outputs are the
    // golden reference the chaos pass must reproduce bit-for-bit.
    std::vector<std::vector<std::vector<uint8_t>>> golden(cfg.victims);
    resetDriver();
    checkCu(cuInit(0), "chaos cuInit (solo)");
    for (uint32_t v = 0; v < cfg.victims; ++v) {
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "chaos ctx (solo)");
        CUfunction fn = loadChaosKernel(kChaosVecAddPtx, "chaos_vecadd");
        const size_t bytes = cfg.elems * sizeof(float);
        CUdeviceptr da, db, dc;
        checkCu(cuMemAlloc(&da, bytes), "chaos alloc");
        checkCu(cuMemAlloc(&db, bytes), "chaos alloc");
        checkCu(cuMemAlloc(&dc, bytes), "chaos alloc");
        CUstream stream = nullptr;
        CUevent ev = nullptr;
        checkCu(cuStreamCreate(&stream, 0), "chaos stream");
        checkCu(cuEventCreate(&ev, 0), "chaos event");
        golden[v].resize(cfg.rounds);
        for (uint32_t r = 0; r < cfg.rounds; ++r) {
            CUresult res = victimRound(v, r, cfg.elems, fn, stream, ev,
                                       da, db, dc, golden[v][r]);
            checkCu(res, "chaos solo round");
        }
        checkCu(cuCtxDestroy(ctx), "chaos ctx destroy (solo)");
    }
    resetDriver();

    // Chaos pass: every tenant is a host thread with its own context,
    // victims interleaved with the adversaries on the same device.
    checkCu(cuInit(0), "chaos cuInit");
    struct Tenant {
        ChaosRole role;
        uint32_t index;
        uint32_t victim_ord = 0; ///< ordinal among victims
        CUcontext ctx = nullptr;
        ChaosTenantReport rep;
    };
    std::vector<Tenant> tenants;
    auto addTenants = [&](ChaosRole role, uint32_t count) {
        for (uint32_t i = 0; i < count; ++i) {
            Tenant t;
            t.role = role;
            t.index = static_cast<uint32_t>(tenants.size());
            if (role == ChaosRole::Victim)
                t.victim_ord = i;
            tenants.push_back(std::move(t));
        }
    };
    addTenants(ChaosRole::Victim, cfg.victims);
    addTenants(ChaosRole::Faulter, cfg.faulters);
    addTenants(ChaosRole::Hanger, cfg.hangers);
    addTenants(ChaosRole::Spammer, cfg.spammers);
    // Create the contexts up front (creation order = tenant ids, so
    // the metrics keys are deterministic).
    for (Tenant &t : tenants)
        checkCu(cuCtxCreate(&t.ctx, 0, 0), "chaos ctx");

    auto victimBody = [&](Tenant &t) {
        CUfunction fn = loadChaosKernel(kChaosVecAddPtx, "chaos_vecadd");
        const size_t bytes = cfg.elems * sizeof(float);
        CUdeviceptr da, db, dc;
        checkCu(cuMemAlloc(&da, bytes), "chaos alloc");
        checkCu(cuMemAlloc(&db, bytes), "chaos alloc");
        checkCu(cuMemAlloc(&dc, bytes), "chaos alloc");
        CUstream stream = nullptr;
        CUevent ev = nullptr;
        checkCu(cuStreamCreate(&stream, 0), "chaos stream");
        checkCu(cuEventCreate(&ev, 0), "chaos event");
        std::vector<uint8_t> out;
        for (uint32_t r = 0; r < cfg.rounds; ++r) {
            CUresult res = victimRound(t.victim_ord, r, cfg.elems, fn,
                                       stream, ev, da, db, dc, out);
            ++t.rep.launches;
            if (res != CUDA_SUCCESS)
                t.rep.spurious_errors = true;
            if (out != golden[t.victim_ord][r])
                t.rep.outputs_identical = false;
        }
    };

    auto faulterBody = [&](Tenant &t) {
        CUfunction fn = loadChaosKernel(kChaosOobPtx, "chaos_oob");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 8), "chaos alloc");
        for (uint32_t r = 0; r < cfg.rounds; ++r) {
            void *params[] = {&out};
            CUresult res = cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0,
                                          nullptr, params, nullptr);
            ++t.rep.launches;
            if (res != CUDA_SUCCESS) {
                ++t.rep.faults;
                if (cuDevicePrimaryCtxReset(0) == CUDA_SUCCESS)
                    ++t.rep.resets;
            }
        }
    };

    auto hangerBody = [&](Tenant &t) {
        CUfunction fn = loadChaosKernel(kChaosLoopPtx, "chaos_loop");
        // Two hangs are plenty: each one occupies the device for a
        // whole watchdog budget.
        const uint32_t hangs = std::min(cfg.rounds, 2u);
        for (uint32_t r = 0; r < hangs; ++r) {
            CUresult res = cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0,
                                          nullptr, nullptr, nullptr);
            ++t.rep.launches;
            if (res != CUDA_SUCCESS) {
                ++t.rep.faults;
                if (cuDevicePrimaryCtxReset(0) == CUDA_SUCCESS)
                    ++t.rep.resets;
            }
        }
    };

    auto spammerBody = [&](Tenant &t) {
        CUfunction fn = loadChaosKernel(kChaosTinyPtx, "chaos_tiny");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 8), "chaos alloc");
        CUstream stream = nullptr;
        checkCu(cuStreamCreate(&stream, 0), "chaos stream");
        for (uint32_t r = 0; r < cfg.rounds; ++r) {
            for (uint32_t i = 0; i < cfg.queue_depth * 3; ++i) {
                void *params[] = {&out};
                CUresult res = cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0,
                                              stream, params, nullptr);
                ++t.rep.launches;
                if (res == CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES)
                    ++t.rep.rejects;
            }
            cuStreamSynchronize(stream);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(tenants.size());
    for (Tenant &t : tenants) {
        threads.emplace_back([&cfg, &t, &victimBody, &faulterBody,
                              &hangerBody, &spammerBody] {
            (void)cfg;
            cuCtxSetCurrent(t.ctx);
            switch (t.role) {
            case ChaosRole::Victim: victimBody(t); break;
            case ChaosRole::Faulter: faulterBody(t); break;
            case ChaosRole::Hanger: hangerBody(t); break;
            case ChaosRole::Spammer: spammerBody(t); break;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (Tenant &t : tenants) {
        t.rep.role = t.role;
        t.rep.index = t.index;
        report.tenants.push_back(t.rep);
    }

    resetDriver();
    ::unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
    ::unsetenv("NVBIT_SIM_COLD_LAUNCH");
    ::unsetenv("NVBIT_SIM_STREAM_QUEUE_DEPTH");
    return report;
}

} // namespace nvbit::tools
