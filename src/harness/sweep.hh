/**
 * @file
 * Host-parallel sweep runner.
 *
 * The paper's evaluation is a dense grid of (scheme × cpu-count ×
 * workload) simulations. Each simulation is single-threaded and fully
 * self-contained (a System owns its event queue, stats, memory and
 * RNG state, and shares nothing mutable), so independent
 * configurations can run on a host thread pool without perturbing a
 * single simulated cycle.
 *
 * Determinism contract (DESIGN.md §8): for the same task list,
 * runSweep() returns byte-for-byte the same results for any `jobs`
 * value — results are stored by task index, never by completion
 * order, and a simulation's outcome depends only on its own config.
 * tests/test_determinism.cc enforces this.
 */

#ifndef TLR_HARNESS_SWEEP_HH
#define TLR_HARNESS_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace tlr
{

/** One independent simulation in a sweep. */
struct SweepTask
{
    std::string key;                 ///< label ("fig08/tlr/p8", ...)
    std::function<RunStats()> run;   ///< builds and runs one System
};

/** Per-task host-side measurements collected by runSweep(). */
struct SweepResult
{
    RunStats stats;
    double wallSeconds = 0; ///< host time for this task
};

/** Host threads to use when the caller does not say: the hardware
 *  concurrency, floored at 1. */
unsigned defaultJobs();

/**
 * Run every task, @p jobs at a time (jobs == 0 → defaultJobs()),
 * returning results in task order regardless of scheduling.
 *
 * Tasks must be independent: each builds its own System inside
 * run(). A task that throws reports completed=false/valid=false and
 * the sweep carries on.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepTask> &tasks,
                                  unsigned jobs = 0);

/** Convenience: wrap a (MachineParams, Workload) pair into a task. */
SweepTask makeSweepTask(std::string key, MachineParams mp, Workload wl);

} // namespace tlr

#endif // TLR_HARNESS_SWEEP_HH
