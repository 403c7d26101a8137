/**
 * @file
 * The engine matrix every differential test iterates: the simulator's
 * four engine configurations, {serial, parallel} x {traces off, on}.
 * Passive runs must be bit-identical across all four rows.
 */
#ifndef NVBIT_TESTS_ENGINE_MATRIX_HPP
#define NVBIT_TESTS_ENGINE_MATRIX_HPP

#include <cstdlib>
#include <ostream>
#include <span>

#include "sim/config.hpp"

namespace nvbit {

/** One engine configuration. */
struct EngineConfig {
    const char *name; ///< also a valid gtest parameter name
    sim::ExecMode exec_mode;
    bool traces;

    /** Select this engine in @p cfg. */
    void
    apply(sim::GpuConfig &cfg) const
    {
        cfg.exec_mode = exec_mode;
        cfg.use_traces = traces;
    }
};

/** gtest prints a parameter into its test's name: print the row's name,
 *  not the struct's bytes (which hold the address of the name). */
inline void
PrintTo(const EngineConfig &e, std::ostream *os)
{
    *os << e.name;
}

/** The untraced rows come first, so kUntracedEngines can slice them. */
inline constexpr EngineConfig kEngineMatrix[] = {
    {"serial", sim::ExecMode::Serial, false},
    {"parallel", sim::ExecMode::Parallel, false},
    {"serial_traced", sim::ExecMode::Serial, true},
    {"parallel_traced", sim::ExecMode::Parallel, true},
};

/** The per-instruction engine in both execution modes, for tests that
 *  do not cover the trace engine. */
inline constexpr std::span<const EngineConfig> kUntracedEngines{
    kEngineMatrix, 2};

/** GpuConfig's default engine (parallel, untraced). */
inline constexpr const EngineConfig &kDefaultEngine = kEngineMatrix[1];

/**
 * Clear the engine environment overrides (NVBIT_SIM_EXEC,
 * NVBIT_SIM_TRACES), which GpuDevice applies over its config, so each
 * test's GpuConfig fully controls the engine.
 */
inline void
clearEngineEnv()
{
    ::unsetenv("NVBIT_SIM_EXEC");
    ::unsetenv("NVBIT_SIM_TRACES");
}

} // namespace nvbit

#endif // NVBIT_TESTS_ENGINE_MATRIX_HPP
