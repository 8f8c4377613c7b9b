/**
 * @file
 * Inert step-lane names, kept only so pearlbench builds; every run
 * steps on one thread.
 *
 * PearlNetwork, CmeshNetwork and HeteroSystem each have one step path,
 * and the only parallelism is SweepRunner's job pool (DESIGN.md "Why
 * runs step on one thread").  Nothing here starts a thread or reads the
 * environment.
 */

#ifndef PEARL_SIM_WORKER_POOL_HPP
#define PEARL_SIM_WORKER_POOL_HPP

namespace pearl {
namespace sim {

/** Kept only so pearlbench builds; every run steps on one thread. */
class WorkerPool
{
  public:
    unsigned lanes() const { return 1; }
};

/** Kept only so pearlbench builds; every run steps on one thread.
 *  pool() is always null. */
class PoolLease
{
  public:
    WorkerPool *pool() const { return nullptr; }
};

/** Kept only so pearlbench builds; every run steps on one thread. */
class ExecutionEngine
{
  public:
    static ExecutionEngine &
    instance()
    {
        static ExecutionEngine engine;
        return engine;
    }

    PoolLease lease(unsigned) { return PoolLease{}; }
};

/** Kept only so pearlbench builds; every run steps on one thread.
 *  Always returns 1. */
inline unsigned
resolveStepThreads(unsigned)
{
    return 1;
}

} // namespace sim
} // namespace pearl

#endif // PEARL_SIM_WORKER_POOL_HPP
