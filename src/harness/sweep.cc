#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "sim/logging.hh"

namespace tlr
{

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::vector<SweepResult>
runSweep(const std::vector<SweepTask> &tasks, unsigned jobs)
{
    std::vector<SweepResult> results(tasks.size());
    if (tasks.empty())
        return results;
    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs > tasks.size())
        jobs = static_cast<unsigned>(tasks.size());

    auto runOne = [&](std::size_t i) {
        using Clock = std::chrono::steady_clock;
        auto t0 = Clock::now();
        try {
            results[i].stats = tasks[i].run();
        } catch (const std::exception &e) {
            // A failed config (watchdog, bad params) must not take the
            // rest of the sweep down; completed/valid stay false.
            warn("sweep task '%s' failed: %s", tasks[i].key.c_str(),
                 e.what());
        }
        results[i].wallSeconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
    };

    if (jobs == 1) {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            runOne(i);
        return results;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= tasks.size())
                    return;
                runOne(i);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    return results;
}

SweepTask
makeSweepTask(std::string key, MachineParams mp, Workload wl)
{
    return SweepTask{std::move(key),
                     [mp, wl] { return runWorkload(mp, wl); }};
}

} // namespace tlr
