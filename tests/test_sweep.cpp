/**
 * @file
 * Tests of the parallel sweep engine: bit-identical determinism across
 * thread counts, submission-order preservation, seed derivation, error
 * propagation/cancellation and the job-thread precedence (explicit
 * request > PEARL_THREADS > the CPU affinity mask).
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "metrics/sweep.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace metrics {
namespace {

/** Clears PEARL_THREADS for the test and restores it after, so
 *  precedence assertions are immune to the caller's environment
 *  (check.sh flavours export PEARL_THREADS). */
class SweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (const char *v = std::getenv("PEARL_THREADS"))
            saved_ = v;
        unsetenv("PEARL_THREADS");
    }

    void
    TearDown() override
    {
        if (saved_)
            setenv("PEARL_THREADS", saved_->c_str(), 1);
        else
            unsetenv("PEARL_THREADS");
    }

  private:
    std::optional<std::string> saved_;
};

#define EXPECT_SAME_BITS(a, b, what)                                    \
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),                          \
              std::bit_cast<std::uint64_t>(b))                          \
        << what << " differs: " << (a) << " vs " << (b)

/** Every RunMetrics field, bit-for-bit. */
void
expectBitIdentical(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.pairLabel, b.pairLabel);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.deliveredPackets, b.deliveredPackets);
    EXPECT_EQ(a.deliveredFlits, b.deliveredFlits);
    EXPECT_EQ(a.deliveredBits, b.deliveredBits);
    EXPECT_EQ(a.cpuPackets, b.cpuPackets);
    EXPECT_EQ(a.gpuPackets, b.gpuPackets);
    EXPECT_SAME_BITS(a.throughputFlitsPerCycle,
                     b.throughputFlitsPerCycle, "throughput");
    EXPECT_SAME_BITS(a.throughputGbps, b.throughputGbps, "Gbps");
    EXPECT_SAME_BITS(a.avgLatencyCycles, b.avgLatencyCycles, "latency");
    EXPECT_SAME_BITS(a.cpuLatencyCycles, b.cpuLatencyCycles,
                     "CPU latency");
    EXPECT_SAME_BITS(a.gpuLatencyCycles, b.gpuLatencyCycles,
                     "GPU latency");
    EXPECT_SAME_BITS(a.totalEnergyJ, b.totalEnergyJ, "energy");
    EXPECT_SAME_BITS(a.energyPerBitPj, b.energyPerBitPj, "energy/bit");
    EXPECT_SAME_BITS(a.laserPowerW, b.laserPowerW, "laser power");
    EXPECT_EQ(a.corruptedPackets, b.corruptedPackets);
    EXPECT_EQ(a.reservationDrops, b.reservationDrops);
    EXPECT_EQ(a.retransmittedPackets, b.retransmittedPackets);
    EXPECT_EQ(a.ackTimeouts, b.ackTimeouts);
    EXPECT_EQ(a.droppedPackets, b.droppedPackets);
    EXPECT_EQ(a.thermalUnlockedCycles, b.thermalUnlockedCycles);
    for (std::size_t s = 0; s < a.residency.size(); ++s) {
        EXPECT_SAME_BITS(a.residency[s], b.residency[s],
                         "residency[" + std::to_string(s) + "]");
    }
    EXPECT_EQ(a.policyFallbackEntries, b.policyFallbackEntries);
    EXPECT_EQ(a.policyFallbackExits, b.policyFallbackExits);
    EXPECT_EQ(a.policyFallbackWindows, b.policyFallbackWindows);
}

core::PearlConfig
faultyConfig()
{
    core::PearlConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xFA017;
    cfg.faults.baseBer = 5e-4;
    cfg.faults.reservationDropRate = 2e-2;
    cfg.faults.bankMtbfCycles = 10000.0;
    cfg.faults.bankMttrCycles = 5000.0;
    return cfg;
}

/** The 8-job determinism grid: two pairs x {reactive, static} x
 *  {healthy, faulty} PEARL plus two CMESH baselines — together they
 *  exercise residency arrays, fault counters and both fabrics. */
std::vector<RunSpec>
determinismJobs(const traffic::BenchmarkSuite &suite)
{
    RunOptions opts;
    opts.warmupCycles = 300;
    opts.measureCycles = 1200;

    const traffic::BenchmarkPair pairs[2] = {
        {suite.find("Rad"), suite.find("QRS")},
        {suite.find("FA"), suite.find("Reduc")},
    };

    std::vector<RunSpec> jobs;
    for (int j = 0; j < 8; ++j) {
        RunSpec job;
        job.configName = "job" + std::to_string(j);
        job.pair = pairs[j % 2];
        job.options = opts;
        if (j >= 6) {
            job.fabric = RunSpec::Fabric::Cmesh;
        } else {
            if (j >= 3)
                job.pearl = faultyConfig();
            if (j % 2 == 0) {
                job.makePolicy = [] {
                    return std::make_unique<core::ReactivePolicy>();
                };
            } else {
                job.makePolicy = [] {
                    return std::make_unique<core::StaticPolicy>(
                        photonic::WlState::WL64);
                };
            }
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

SweepResult
runWithThreads(const std::vector<RunSpec> &jobs, unsigned threads)
{
    SweepOptions so;
    so.threads = threads;
    so.baseSeed = 12345;
    return SweepRunner(so).run(jobs);
}

TEST_F(SweepTest, BitIdenticalAcrossThreadCounts)
{
    traffic::BenchmarkSuite suite;
    const auto jobs = determinismJobs(suite);

    const SweepResult serial = runWithThreads(jobs, 1);
    ASSERT_TRUE(serial.allOk());
    EXPECT_EQ(serial.summary.threads, 1u);

    // The faulty jobs must exercise the resilience counters, otherwise
    // "fault counters are bit-identical" would be vacuous.
    std::uint64_t recovery_events = 0;
    for (const auto &j : serial.jobs) {
        recovery_events += j.metrics.retransmittedPackets +
                           j.metrics.reservationDrops +
                           j.metrics.corruptedPackets;
    }
    EXPECT_GT(recovery_events, 0u);

    for (unsigned threads : {2u, 8u}) {
        const SweepResult parallel = runWithThreads(jobs, threads);
        ASSERT_TRUE(parallel.allOk());
        ASSERT_EQ(parallel.jobs.size(), serial.jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i) + " at " +
                         std::to_string(threads) + " threads");
            EXPECT_EQ(parallel.jobs[i].seed, serial.jobs[i].seed);
            expectBitIdentical(parallel.jobs[i].metrics,
                               serial.jobs[i].metrics);
        }
    }
}

TEST_F(SweepTest, SubmissionOrderPreserved)
{
    // Custom jobs with staggered labels: results must come back in
    // submission order regardless of completion order.  The callables
    // return unnamed metrics, so the names checked below are the ones
    // executeSpec stamps from the spec.
    std::vector<RunSpec> jobs;
    for (int i = 0; i < 16; ++i) {
        RunSpec job;
        job.configName = "cfg" + std::to_string(i);
        job.label = "label" + std::to_string(i);
        job.custom = [i](const RunSpec &, std::uint64_t) {
            RunMetrics m;
            m.deliveredPackets = static_cast<std::uint64_t>(i);
            return m;
        };
        jobs.push_back(std::move(job));
    }
    SweepOptions so;
    so.threads = 8;
    const SweepResult result = SweepRunner(so).run(jobs);
    ASSERT_TRUE(result.allOk());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(result.jobs[i].metrics.configName,
                  "cfg" + std::to_string(i));
        EXPECT_EQ(result.jobs[i].metrics.pairLabel,
                  "label" + std::to_string(i));
        EXPECT_EQ(result.jobs[i].metrics.deliveredPackets, i);
    }
}

TEST_F(SweepTest, SeedsDeriveFromBaseAndIndex)
{
    std::vector<RunSpec> jobs;
    for (int i = 0; i < 4; ++i) {
        RunSpec job;
        job.custom = [](const RunSpec &, std::uint64_t) {
            return RunMetrics{};
        };
        if (i == 2)
            job.explicitSeed = 777;
        jobs.push_back(std::move(job));
    }
    SweepOptions so;
    so.threads = 2;
    so.baseSeed = 42;
    const SweepResult result = SweepRunner(so).run(jobs);
    ASSERT_TRUE(result.allOk());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 2)
            EXPECT_EQ(result.jobs[i].seed, 777u);
        else
            EXPECT_EQ(result.jobs[i].seed, deriveSeed(42, i));
    }
    // Decorrelated streams: no two derived seeds collide.
    EXPECT_NE(result.jobs[0].seed, result.jobs[1].seed);
    EXPECT_NE(result.jobs[1].seed, result.jobs[3].seed);
}

TEST_F(SweepTest, ErrorPropagates)
{
    std::vector<RunSpec> jobs;
    for (int i = 0; i < 6; ++i) {
        RunSpec job;
        job.configName = "e" + std::to_string(i);
        job.custom = [i](const RunSpec &, std::uint64_t) {
            if (i == 3)
                throw std::runtime_error("boom in job 3");
            return RunMetrics{};
        };
        jobs.push_back(std::move(job));
    }
    SweepOptions so;
    so.threads = 4;
    const SweepResult result = SweepRunner(so).run(jobs);
    EXPECT_FALSE(result.allOk());
    ASSERT_NE(result.firstError(), nullptr);
    EXPECT_EQ(result.firstError(), &result.jobs[3]);
    EXPECT_FALSE(result.jobs[3].ok);
    EXPECT_NE(result.jobs[3].error.find("boom"), std::string::npos);
    EXPECT_EQ(result.summary.failed, 1u);
    EXPECT_THROW(result.metricsOrThrow(), std::runtime_error);
}

TEST_F(SweepTest, SerialCancelSkipsRemaining)
{
    std::vector<RunSpec> jobs;
    for (int i = 0; i < 5; ++i) {
        RunSpec job;
        job.custom = [i](const RunSpec &, std::uint64_t) {
            if (i == 1)
                throw std::runtime_error("fail fast");
            return RunMetrics{};
        };
        jobs.push_back(std::move(job));
    }
    SweepOptions so;
    so.threads = 1; // serial: cancellation order is deterministic
    const SweepResult result = SweepRunner(so).run(jobs);
    EXPECT_TRUE(result.jobs[0].ok);
    EXPECT_FALSE(result.jobs[1].ok);
    EXPECT_FALSE(result.jobs[1].skipped);
    for (std::size_t i = 2; i < jobs.size(); ++i) {
        EXPECT_FALSE(result.jobs[i].ok);
        EXPECT_TRUE(result.jobs[i].skipped);
    }
    EXPECT_EQ(result.summary.failed, 1u);
    EXPECT_EQ(result.summary.skipped, 3u);
}

TEST_F(SweepTest, CancelOnErrorOffRunsEverything)
{
    std::vector<RunSpec> jobs;
    for (int i = 0; i < 4; ++i) {
        RunSpec job;
        job.custom = [i](const RunSpec &, std::uint64_t) {
            if (i == 0)
                throw std::runtime_error("only job 0 fails");
            return RunMetrics{};
        };
        jobs.push_back(std::move(job));
    }
    SweepOptions so;
    so.threads = 1;
    so.cancelOnError = false;
    const SweepResult result = SweepRunner(so).run(jobs);
    EXPECT_FALSE(result.jobs[0].ok);
    for (std::size_t i = 1; i < jobs.size(); ++i)
        EXPECT_TRUE(result.jobs[i].ok);
    EXPECT_EQ(result.summary.skipped, 0u);
}

TEST_F(SweepTest, EnvForcesSerialAndMatchesSerialRun)
{
    traffic::BenchmarkSuite suite;
    const auto jobs = determinismJobs(suite);

    const SweepResult serial = runWithThreads(jobs, 1);
    ASSERT_TRUE(serial.allOk());

    // An explicit request beats the env knob, so force serial via the
    // environment with the request left at "resolve for me" (0).
    setenv("PEARL_THREADS", "1", 1);
    const SweepResult forced = runWithThreads(jobs, 0);
    ASSERT_TRUE(forced.allOk());
    EXPECT_EQ(forced.summary.threads, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectBitIdentical(forced.jobs[i].metrics,
                           serial.jobs[i].metrics);
    }
}

TEST_F(SweepTest, ResolveThreadsPrecedence)
{
    // Fixture cleared PEARL_THREADS: explicit request wins, and an
    // unconstrained request falls back to the hardware count (>= 1).
    EXPECT_EQ(resolveThreads(4), 4u);
    EXPECT_GE(resolveThreads(0), 1u);

    // An explicit nonzero request beats PEARL_THREADS...
    setenv("PEARL_THREADS", "3", 1);
    EXPECT_EQ(resolveThreads(4), 4u);

    // ...which beats the hardware fallback.
    EXPECT_EQ(resolveThreads(0), 3u);

    // Zero means "unset" and garbage is ignored with a warning; both
    // fall through to the hardware fallback / explicit request.
    setenv("PEARL_THREADS", "0", 1);
    EXPECT_GE(resolveThreads(0), 1u);
    EXPECT_EQ(resolveThreads(4), 4u);
    setenv("PEARL_THREADS", "abc", 1);
    EXPECT_GE(resolveThreads(0), 1u);
    EXPECT_EQ(resolveThreads(4), 4u);

    // Counts are clamped to [1, 256].
    setenv("PEARL_THREADS", "100000", 1);
    EXPECT_EQ(resolveThreads(0), 256u);
    EXPECT_EQ(resolveThreads(1000), 256u);
}

TEST_F(SweepTest, ResolveThreadsCountsTheAffinityMask)
{
    // Fixture cleared PEARL_THREADS: a thread pinned to one CPU gets one
    // job thread, however many CPUs the host has online.
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = resolveThreads(0);
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(resolveThreads(0),
              std::min(static_cast<unsigned>(CPU_COUNT(&saved)), 256u));
}

TEST_F(SweepTest, EmptySweepIsANoop)
{
    const SweepResult result = SweepRunner().run({});
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(result.jobs.size(), 0u);
    EXPECT_EQ(result.summary.jobs, 0u);
}

TEST_F(SweepTest, SummaryCapturesPerJobWallTime)
{
    traffic::BenchmarkSuite suite;
    auto jobs = determinismJobs(suite);
    jobs.resize(2);
    const SweepResult result = runWithThreads(jobs, 2);
    ASSERT_TRUE(result.allOk());
    EXPECT_EQ(result.summary.jobs, 2u);
    double aggregate = 0.0;
    for (const auto &j : result.jobs) {
        EXPECT_GT(j.wallSeconds, 0.0);
        aggregate += j.wallSeconds;
    }
    EXPECT_DOUBLE_EQ(result.summary.aggregateJobSeconds, aggregate);
    EXPECT_GT(result.summary.wallSeconds, 0.0);
    EXPECT_GE(result.summary.speedup(), 0.5);
}

// Fault tolerance --------------------------------------------------------

TEST_F(SweepTest, ValidationFailureIsStructuredAndNeverRetried)
{
    traffic::BenchmarkSuite suite;
    auto jobs = determinismJobs(suite);
    jobs.resize(2);
    jobs[0].configName = "bad-window";
    jobs[0].pearl.reservationWindow = 0; // deterministic config error

    SweepOptions so;
    so.threads = 1;
    so.cancelOnError = false;
    const SweepResult result = SweepRunner(so).run(jobs);

    EXPECT_FALSE(result.jobs[0].ok);
    EXPECT_EQ(result.jobs[0].errorCode, ErrorCode::InvalidConfig);
    EXPECT_NE(result.jobs[0].error.find("reservationWindow"),
              std::string::npos);
    EXPECT_NE(result.jobs[0].error.find("bad-window"),
              std::string::npos);
    EXPECT_TRUE(result.jobs[1].ok);
    EXPECT_EQ(result.summary.failed, 1u);
}

TEST_F(SweepTest, ThrowingJobReportsStructuredFailure)
{
    std::vector<RunSpec> jobs(1);
    jobs[0].configName = "always-fails";
    jobs[0].custom = [](const RunSpec &, std::uint64_t) -> RunMetrics {
        throw std::runtime_error("persistent failure");
    };
    SweepOptions so;
    so.threads = 1;
    const SweepResult result = SweepRunner(so).run(jobs);
    EXPECT_FALSE(result.jobs[0].ok);
    EXPECT_EQ(result.jobs[0].errorCode, ErrorCode::JobFailed);
    EXPECT_NE(result.jobs[0].error.find("persistent"),
              std::string::npos);
    EXPECT_EQ(result.summary.failed, 1u);
}

} // namespace
} // namespace metrics
} // namespace pearl
