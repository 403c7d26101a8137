/**
 * @file
 * Compute-sanitizer-style tool family (the launcher-facing side of the
 * correctness observability suite, docs/observability.md):
 *
 *  - SancheckTool: requests a set of sanitizer checks (memcheck /
 *    racecheck / synccheck / initcheck) before the device exists and
 *    prints the compute-sanitizer-style report at teardown — the
 *    `nvbit_run --tool sancheck[=check,...]` entry point.
 *
 *  - SancheckCampaign: a detection-rate campaign in the mould of
 *    FaultCampaignRunner's SASSIFI sweep, but seeding *known* bug
 *    classes instead of random bit flips: out-of-bounds stores/loads
 *    into allocator gaps, use-after-free, cross-warp shared-memory
 *    races, divergent barrier arrival, divergent-barrier deadlock and
 *    uninitialised global reads, plus clean control workloads.  Each
 *    experiment runs the seeded kernel through the driver API on a
 *    fresh device with the checks enabled, then classifies the outcome
 *    as detected (the expected check fired), escaped (it stayed
 *    silent) or false positive (an unexpected check fired, or any
 *    check fired on a clean control).
 */
#ifndef NVBIT_TOOLS_SANCHECK_HPP
#define NVBIT_TOOLS_SANCHECK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/sanitizer.hpp"
#include "sim/config.hpp"
#include "tools/common.hpp"

namespace nvbit::tools {

/**
 * Launcher tool: asks the next device for the requested sanitizer
 * checks and prints the finding report at application teardown.  The
 * checks themselves are passive interpreter hooks (sim/interpreter.cpp)
 * — the tool inserts no instrumentation, so it composes with the
 * NVBIT_SIM_SANCHECK* environment controls documented in docs/API.md.
 */
class SancheckTool : public NvbitTool
{
  public:
    struct Options {
        /** kSancheck* bits to enable (default: all four checks). */
        uint32_t mask = obs::kSancheckAll;
        /** Print the text report to stdout at nvbit_at_term. */
        bool print_report = true;
    };

    SancheckTool();
    explicit SancheckTool(Options opts);

    void nvbit_at_init() override;
    void nvbit_at_term() override;

    uint32_t mask() const { return opts_.mask; }
    uint64_t totalViolations() const;
    /** The compute-sanitizer-style text report (obs::Sanitizer). */
    std::string report() const;

  private:
    Options opts_;
};

// --- Detection-rate campaign ---------------------------------------------

/** The seeded bug classes (plus clean controls). */
enum class SeededBug : uint8_t {
    OobStore,         ///< store past the end of a live allocation
    OobLoad,          ///< load from an allocator gap
    UseAfterFree,     ///< store into a freed allocation
    SharedRace,       ///< cross-warp shared-memory WAW, no barrier
    DivergentBarrier, ///< intra-warp partial barrier arrival
    BarrierDeadlock,  ///< cross-warp divergent barriers (fatal)
    UninitRead,       ///< global read of never-written allocation
    CleanVectorAdd,   ///< control: data-parallel, no shared memory
    CleanSharedReduce,///< control: barrier-separated shared traffic
    CleanEarlyExit,   ///< control: whole warps exit before a barrier
};

const char *seededBugName(SeededBug b);

/** One campaign experiment (one fresh device + one seeded kernel). */
struct SancheckExperiment {
    SeededBug bug = SeededBug::CleanVectorAdd;
    /** Expected check; meaningful only when seeded. */
    obs::SanCheck expected = obs::SanCheck::Memcheck;
    bool seeded = false;
    /** Seeded runs: the expected check recorded >= 1 violation. */
    bool detected = false;
    /** Any check other than the expected one fired (seeded runs), or
     *  any check at all fired (clean controls). */
    bool false_positive = false;
    /** Per-check violation counts observed in this run. */
    uint64_t violations[obs::kNumSanChecks] = {0, 0, 0, 0};
    cudrv::CUresult status = cudrv::CUDA_SUCCESS;
};

/** Aggregated detection/escape/false-positive rates. */
struct SancheckCampaignReport {
    std::vector<SancheckExperiment> experiments;

    size_t seededCount() const;
    size_t detectedCount() const;
    size_t escapedCount() const;
    size_t falsePositiveCount() const;
    /** detected / seeded (1.0 when nothing was seeded). */
    double detectionRate() const;
    std::string toJson() const;
};

/**
 * Runs every seeded bug class and every clean control on a fresh
 * device per experiment (it owns the driver lifecycle, like
 * FaultCampaignRunner::runChaos: resetDriver before and after each
 * run, and leaves the driver reset).
 */
class SancheckCampaign
{
  public:
    struct Config {
        /** Checks to enable during the campaign. */
        uint32_t mask = obs::kSancheckAll;
        /** Engine configuration the experiments run under. */
        sim::ExecMode exec_mode = sim::ExecMode::Parallel;
        bool use_traces = false;
    };

    explicit SancheckCampaign(Config cfg) : cfg_(cfg) {}

    SancheckCampaignReport run() const;

    /** All bug classes + controls, in deterministic order. */
    static const std::vector<SeededBug> &allExperiments();

  private:
    SancheckExperiment runOne(SeededBug bug) const;

    Config cfg_;
};

} // namespace nvbit::tools

#endif // NVBIT_TOOLS_SANCHECK_HPP
