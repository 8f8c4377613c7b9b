/**
 * @file
 * Tests of the structured-error layer (common/expected.hpp) and the
 * config validators: every user-facing configuration struct has a
 * validate() whose failures carry an actionable message, and the
 * construction paths that used to PEARL_ASSERT on user input now throw
 * ConfigError instead.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "cache/cache_array.hpp"
#include "cache/validate.hpp"
#include "common/expected.hpp"
#include "core/validate.hpp"
#include "electrical/validate.hpp"
#include "metrics/sweep.hpp"
#include "ml/guarded_policy.hpp"
#include "photonic/loss_budget.hpp"
#include "photonic/reservation.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace {

/** True when the validation failed and its message mentions `needle`. */
testing::AssertionResult
failsMentioning(const Validation &v, const std::string &needle)
{
    if (v)
        return testing::AssertionFailure()
               << "expected a validation failure mentioning '" << needle
               << "' but validation passed";
    if (v.error().code != ErrorCode::InvalidConfig)
        return testing::AssertionFailure()
               << "expected InvalidConfig, got "
               << static_cast<int>(v.error().code) << ": "
               << v.error().message;
    if (v.error().message.find(needle) == std::string::npos)
        return testing::AssertionFailure()
               << "message does not mention '" << needle
               << "': " << v.error().message;
    return testing::AssertionSuccess();
}

// Validation -------------------------------------------------------------

TEST(Validation, SuccessAndErrorStates)
{
    Validation v; // default: success
    EXPECT_TRUE(v);
    EXPECT_NO_THROW(throwIfInvalid(v));

    const Validation fail = configError("field must be > ", 3, ", got ", 0);
    EXPECT_FALSE(fail);
    EXPECT_EQ(fail.error().message, "field must be > 3, got 0");
    EXPECT_THROW(throwIfInvalid(fail), ConfigError);
    try {
        throwIfInvalid(fail);
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(fail.error().message),
                  std::string::npos);
        EXPECT_EQ(e.error().code, ErrorCode::InvalidConfig);
    }
}

// Core -------------------------------------------------------------------

TEST(Validate, PearlConfigDefaultsPassAndBadFieldsNameThemselves)
{
    core::PearlConfig cfg;
    EXPECT_TRUE(core::validate(cfg));

    cfg.reservationWindow = 0;
    EXPECT_TRUE(failsMentioning(core::validate(cfg),
                                "reservationWindow"));
    cfg = {};

    cfg.l3Node = 99;
    EXPECT_TRUE(failsMentioning(core::validate(cfg), "l3Node"));
    cfg = {};

    cfg.faults.enabled = true;
    cfg.faults.baseBer = 1.5; // not a probability
    EXPECT_TRUE(failsMentioning(core::validate(cfg), "baseBer"));
    cfg.faults.baseBer = 1e-6;
    cfg.ackTimeoutCycles = 0; // every delivery would "time out"
    EXPECT_TRUE(failsMentioning(core::validate(cfg),
                                "ackTimeoutCycles"));
}

TEST(Validate, DbaAndReactiveThresholds)
{
    core::DbaConfig dba;
    EXPECT_TRUE(core::validate(dba));
    dba.stepFraction = 0.9;
    EXPECT_TRUE(failsMentioning(core::validate(dba), "stepFraction"));

    core::ReactiveThresholds t;
    EXPECT_TRUE(core::validate(t));
    t.midLower = t.midUpper; // ladder no longer strictly descending
    EXPECT_TRUE(failsMentioning(core::validate(t), "descend"));
}

// Cache ------------------------------------------------------------------

TEST(Validate, CacheHierarchyAndArrayGeometry)
{
    cache::HierarchyConfig cfg;
    EXPECT_TRUE(cache::validate(cfg));

    cfg.l3Ways = 0;
    EXPECT_TRUE(failsMentioning(cache::validate(cfg), "l3"));
    cfg = {};

    cfg.cpuL2Lines = 1000; // not divisible by 8 ways
    cfg.l2Ways = 7;
    EXPECT_TRUE(failsMentioning(cache::validate(cfg), "divisible"));

    EXPECT_TRUE(cache::validateArrayGeometry("x", 1024, 8));
    EXPECT_TRUE(failsMentioning(
        cache::validateArrayGeometry("tagArray", 1024, 128), "tagArray"));

    // 2*cpu + gpu L1s per cluster must fit the L2's 8-bit L1 mask.
    for (auto [cpu, gpu] : {std::pair{2, 4}, std::pair{1, 6}}) {
        cfg = {};
        cfg.cpuCoresPerCluster = cpu;
        cfg.gpuCusPerCluster = gpu;
        EXPECT_TRUE(cache::validate(cfg)) << cpu << "," << gpu;
    }
    for (auto [cpu, gpu] : {std::pair{3, 3}, std::pair{2, 5}}) {
        cfg = {};
        cfg.cpuCoresPerCluster = cpu;
        cfg.gpuCusPerCluster = gpu;
        for (const char *needle :
             {"cpuCoresPerCluster", "gpuCusPerCluster", "8 L1s"})
            EXPECT_TRUE(failsMentioning(cache::validate(cfg), needle))
                << cpu << "," << gpu;
    }
}

TEST(Validate, CacheArrayConstructionThrowsConfigError)
{
    EXPECT_NO_THROW((cache::CacheArray<>(1024, 8)));
    EXPECT_THROW((cache::CacheArray<>(1024, 0)), ConfigError);
    EXPECT_THROW((cache::CacheArray<>(0, 8)), ConfigError);
    EXPECT_THROW((cache::CacheArray<>(1000, 7)), ConfigError);
    EXPECT_THROW((cache::CacheArray<>(1024, 100)), ConfigError);
}

// Electrical -------------------------------------------------------------

TEST(Validate, CmeshConfig)
{
    electrical::CmeshConfig cfg;
    EXPECT_TRUE(electrical::validate(cfg));

    cfg.numVcs = 3; // must stay even (req/resp pairing)
    EXPECT_TRUE(failsMentioning(electrical::validate(cfg), "numVcs"));
    cfg = {};

    cfg.numVcs = 10; // 6 MC-router ports x 10 VCs fill 60 mask bits
    EXPECT_TRUE(electrical::validate(cfg));
    cfg.numVcs = 12; // 72 input VCs overflow the 64-bit masks
    EXPECT_TRUE(failsMentioning(electrical::validate(cfg), "cmesh.numVcs"));
    cfg = {};

    cfg.l3Router = 16; // out of the 4x4 mesh
    EXPECT_TRUE(failsMentioning(electrical::validate(cfg), "l3Router"));
    cfg = {};

    cfg.linkCyclesPerFlit = 0;
    EXPECT_TRUE(failsMentioning(electrical::validate(cfg),
                                "linkCyclesPerFlit"));
}

// Photonic ---------------------------------------------------------------

TEST(Validate, ReservationChannel)
{
    photonic::ReservationConfig cfg;
    EXPECT_TRUE(photonic::validate(cfg));
    EXPECT_NO_THROW(photonic::ReservationChannel{cfg});

    cfg.numRouters = 0;
    EXPECT_TRUE(failsMentioning(photonic::validate(cfg), "numRouters"));
    EXPECT_THROW(photonic::ReservationChannel{cfg}, ConfigError);

    photonic::ReservationChannel chan;
    EXPECT_THROW(chan.latencyCycles(0), ConfigError);
    try {
        chan.latencyCycles(-1);
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.error().code, ErrorCode::InvalidArgument);
    }
}

TEST(Validate, LossBudgetArgumentsThrowStructuredErrors)
{
    const photonic::LossBudget budget{photonic::DeviceConstants{},
                                      photonic::ChipGeometry{}};
    EXPECT_GT(budget.electricalLaserW(photonic::WlState::WL64, 0.1),
              0.0);
    EXPECT_THROW(budget.electricalLaserW(photonic::WlState::WL64, 0.0),
                 ConfigError);
    EXPECT_THROW(budget.electricalLaserW(photonic::WlState::WL64, 1.5),
                 ConfigError);
    EXPECT_THROW(budget.calibratedEfficiency(0.0), ConfigError);
    EXPECT_THROW(budget.calibratedEfficiency(-3.0), ConfigError);
}

// Run descriptors --------------------------------------------------------

metrics::RunSpec
validPearlSpec()
{
    traffic::BenchmarkSuite suite;
    metrics::RunSpec spec;
    spec.configName = "unit";
    spec.pair = {suite.find("Rad"), suite.find("QRS")};
    spec.options.warmupCycles = 100;
    spec.options.measureCycles = 500;
    spec.makePolicy = [] {
        return std::make_unique<core::ReactivePolicy>();
    };
    return spec;
}

TEST(Validate, RunSpecPaths)
{
    EXPECT_TRUE(metrics::validate(validPearlSpec()));

    // Shared options: a zero measurement phase can never be right.
    metrics::RunSpec spec = validPearlSpec();
    spec.options.measureCycles = 0;
    EXPECT_TRUE(failsMentioning(metrics::validate(spec),
                                "measureCycles"));

    // The Pearl descriptor path needs a policy factory.
    spec = validPearlSpec();
    spec.makePolicy = nullptr;
    EXPECT_TRUE(failsMentioning(metrics::validate(spec), "policy"));

    // Fabric config errors surface with the job name as a prefix.
    spec = validPearlSpec();
    spec.configName = "bad-window";
    spec.pearl.reservationWindow = 0;
    const Validation v = metrics::validate(spec);
    EXPECT_TRUE(failsMentioning(v, "reservationWindow"));
    EXPECT_TRUE(failsMentioning(v, "bad-window"));

    // Cmesh jobs validate the mesh config instead.
    spec = validPearlSpec();
    spec.fabric = metrics::RunSpec::Fabric::Cmesh;
    spec.makePolicy = nullptr; // not needed on the electrical path
    spec.cmesh.meshX = 0;
    EXPECT_TRUE(failsMentioning(metrics::validate(spec), "mesh"));

    // Custom jobs own everything beyond the shared options.
    spec = validPearlSpec();
    spec.pearl.reservationWindow = 0; // would fail the descriptor path
    spec.custom = [](const metrics::RunSpec &,
                     std::uint64_t) { return metrics::RunMetrics{}; };
    EXPECT_TRUE(metrics::validate(spec));
}

TEST(Validate, ExecuteSpecThrowsOnInvalidDescriptor)
{
    metrics::RunSpec spec = validPearlSpec();
    spec.pearl.reservationWindow = 0;
    EXPECT_THROW(metrics::executeSpec(spec, 1), ConfigError);

    spec = validPearlSpec();
    spec.makePolicy = nullptr;
    EXPECT_THROW(metrics::executeSpec(spec, 1), ConfigError);
}

// Guardrails (the remaining validate() entry point) ----------------------

TEST(Validate, GuardrailConfig)
{
    ml::GuardrailConfig cfg;
    EXPECT_TRUE(ml::validate(cfg));
    cfg.enterStreak = 0;
    EXPECT_TRUE(failsMentioning(ml::validate(cfg), "streak"));
}

} // namespace
} // namespace pearl
