/**
 * @file
 * Compute-sanitizer-style correctness observability (docs/
 * observability.md, "Correctness checking").
 *
 * Four checks, modelled on NVIDIA's compute-sanitizer tool family:
 *
 *  - *memcheck*: global accesses must land inside live allocations
 *    (catches out-of-bounds offsets into allocator gaps / freed
 *    blocks and use-after-free, which the storage-bounds trap alone
 *    cannot see);
 *  - *racecheck*: shared-memory cells written and touched by a
 *    different warp within the same barrier epoch are happens-before
 *    hazards (WAW / RAW / WAR);
 *  - *synccheck*: barriers executed by a strict subset of a warp's
 *    live lanes (divergent arrival), plus the fatal divergent-barrier
 *    deadlock the scheduler detects;
 *  - *initcheck*: global reads of bytes never written since their
 *    allocation.
 *
 * The checks themselves live in the interpreter's memory/barrier
 * paths (sim/interpreter.cpp) and in the shadow state beside device
 * memory (mem/shadow_memory.hpp); this singleton is the reporting
 * plane.  It mirrors the Profiler: tools request checks before the
 * device exists, findings attribute tool-vs-app pcs through the origin
 * resolver the NVBit core installs while injected (obs/profile.hpp,
 * shared with the Profiler), and the observability session writes the
 * report to NVBIT_SIM_SANCHECK_REPORT at exit and on the fault path.
 *
 * Determinism: findings deduplicate on (check, space, pc, addr,
 * is_write) and keep the canonically smallest execution context per
 * key, and dynamic violation totals are order-independent sums — so
 * both the finding set and the `sancheck.*` counters are bit-identical
 * across all four engine configurations.  Passivity: a quiet run (no
 * violations) creates no counters and perturbs nothing; checks never
 * charge simulated cycles.
 */
#ifndef NVBIT_OBS_SANITIZER_HPP
#define NVBIT_OBS_SANITIZER_HPP

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace nvbit::obs {

/** The four check kinds, also bit positions in the enable mask. */
enum class SanCheck : uint8_t {
    Memcheck = 0,
    Racecheck,
    Synccheck,
    Initcheck,
};

constexpr size_t kNumSanChecks = 4;

constexpr uint32_t kSancheckMemcheck = 1u << 0;
constexpr uint32_t kSancheckRacecheck = 1u << 1;
constexpr uint32_t kSancheckSynccheck = 1u << 2;
constexpr uint32_t kSancheckInitcheck = 1u << 3;
constexpr uint32_t kSancheckAll = 0xF;

constexpr const char *
sanCheckName(SanCheck c)
{
    switch (c) {
      case SanCheck::Memcheck: return "memcheck";
      case SanCheck::Racecheck: return "racecheck";
      case SanCheck::Synccheck: return "synccheck";
      case SanCheck::Initcheck: return "initcheck";
    }
    return "unknown";
}

/**
 * Parse a check list: comma-separated check names, "all", or
 * "off"/"none"/"0" for an explicit empty mask.  Unknown tokens fail
 * the parse.  Returns the mask; sets *ok (when non-null).
 */
uint32_t parseSancheckList(const char *s, bool *ok = nullptr);

/** Memory space of a finding (subset of sim::MemSpace, kept separate
 *  so obs stays free of sim headers). */
enum class SanSpace : uint8_t { None = 0, Global, Shared };

constexpr const char *
sanSpaceName(SanSpace s)
{
    switch (s) {
      case SanSpace::None: return "none";
      case SanSpace::Global: return "global";
      case SanSpace::Shared: return "shared";
    }
    return "unknown";
}

/**
 * One structured sanitizer diagnostic (the ISSUE's SanitizerReport
 * record).  Producers fill the check/fault/context fields; record()
 * resolves pc attribution eagerly (while modules are loaded) and
 * folds duplicates.
 */
struct SanitizerFinding {
    enum class Severity : uint8_t { Warning, Error };

    SanCheck check = SanCheck::Memcheck;
    Severity severity = Severity::Error;
    std::string message;

    /** Faulting device pc, plus eager tool-vs-app attribution. */
    uint64_t pc = 0;
    bool tool_origin = false;
    uint64_t app_pc = 0;
    std::string func;

    /** Faulting access (memcheck/racecheck/initcheck). */
    uint64_t addr = 0;
    uint32_t bytes = 0;
    SanSpace space = SanSpace::None;
    bool is_write = false;

    /** Execution context of the (canonically first) occurrence. */
    uint32_t ctaid[3] = {0, 0, 0};
    uint64_t cta_index = 0;
    unsigned sm_id = 0;
    unsigned warp = 0;
    unsigned lane = 0;

    /** Allocation provenance (memcheck; valid when has_alloc). */
    bool has_alloc = false;
    uint64_t alloc_base = 0;
    uint64_t alloc_bytes = 0;
    uint64_t alloc_seq = 0;
    bool alloc_live = false;

    /** Return stack of the faulting lane at record time (used for
     *  origin resolution; not serialised). */
    std::vector<uint64_t> ret_stack;

    /** Dynamic events folded into this unique finding. */
    uint64_t occurrences = 1;
};

/**
 * Singleton sanitizer report plane.  Thread-safe: violations are rare
 * (never on the per-instruction fast path — the interpreter checks
 * shadow flags lock-free and only calls in here on a hit), so one
 * mutex suffices.
 */
class Sanitizer
{
  public:
    static Sanitizer &instance();

    // --- Check request (tools, before cuInit) -------------------------
    /** Ask the next GpuDevice to enable @p mask (kSancheck* bits).
     *  An explicit GpuConfig.sancheck_mask or NVBIT_SIM_SANCHECK
     *  wins (including an explicit "off"). */
    void requestChecks(uint32_t mask);
    uint32_t requestedChecks() const;

    // --- Ingestion (interpreter / SM layer, on violation only) --------
    /**
     * Record one dynamic violation: resolve pc origin, bump the
     * per-check counter (both here and in the MetricsRegistry's
     * `sancheck.<check>.violations` family), and fold into the unique
     * finding set.
     * @return true when the caller should promote the finding to a
     * fatal DeviceException (NVBIT_SIM_SANCHECK_FATAL=1 and Error
     * severity; the env var is re-read per call so tests can toggle
     * it).
     */
    bool record(SanitizerFinding f);

    // --- Queries -------------------------------------------------------
    uint64_t violationCount(SanCheck c) const;
    uint64_t totalViolations() const;
    /** Unique findings in canonical (deterministic) key order. */
    std::vector<SanitizerFinding> findings() const;

    /** compute-sanitizer-style text report. */
    std::string textReport() const;
    /** Deterministic JSON document (schema: docs/observability.md). */
    std::string toJson() const;

    // --- Test hooks ----------------------------------------------------
    /** Drop findings, counters and the requested mask; the origin
     *  resolver is left installed (owned by the core's lifecycle). */
    void reset();

  private:
    friend struct SessionSinks;
    Sanitizer() = default;

    struct Key {
        uint8_t check;
        uint8_t space;
        uint64_t pc;
        uint64_t addr;
        bool is_write;
        bool operator<(const Key &o) const
        {
            if (check != o.check) return check < o.check;
            if (space != o.space) return space < o.space;
            if (pc != o.pc) return pc < o.pc;
            if (addr != o.addr) return addr < o.addr;
            return is_write < o.is_write;
        }
    };

    /** Cap on stored unique findings (counters keep counting past it). */
    static constexpr size_t kMaxFindings = 256;

    mutable std::mutex mu_;
    uint32_t requested_ = 0;
    std::array<uint64_t, kNumSanChecks> counts_{};
    std::map<Key, SanitizerFinding> findings_;
    uint64_t dropped_findings_ = 0;
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_SANITIZER_HPP
