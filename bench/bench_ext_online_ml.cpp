/**
 * @file
 * Extension (the paper's stated future work): online learning for the
 * ML power scaler.
 *
 * The conclusion of the paper names "improving the prediction accuracy"
 * as the lever for further gains.  This bench deploys a recursive-
 * least-squares model that warm-starts from the offline ridge model and
 * keeps training on every closed window at runtime, and compares it
 * against the offline ML policy and the reactive scaler on the test
 * pairs (which the offline model never saw).
 */

#include "bench_common.hpp"
#include "ml/online_ridge.hpp"

using namespace pearl;

int
main()
{
    bench::banner("Extension — online (RLS) ML power scaling",
                  "Section V future work: better prediction accuracy");

    traffic::BenchmarkSuite suite;
    core::DbaConfig dba;
    const std::uint64_t rw = 500;

    // Baseline and reference policies.
    core::PearlConfig cfg;
    cfg.reservationWindow = rw;
    const auto base = bench::finish(
        "64WL", bench::runPearlGrid(suite, "64WL", cfg, dba, [] {
            return std::make_unique<core::StaticPolicy>(
                photonic::WlState::WL64);
        }));
    const auto reactive = bench::finish(
        "Dyn RW500", bench::runPearlGrid(suite, "Dyn", cfg, dba, [] {
            return std::make_unique<core::ReactivePolicy>();
        }));

    const auto trained = bench::trainedModel(suite, rw);
    ml::MlPolicyConfig pol;
    const auto offline = bench::finish(
        "ML RW500 (offline)",
        bench::runPearlGrid(suite, "ML", cfg, dba, [&trained, pol] {
            return std::make_unique<ml::MlPowerPolicy>(&trained.model,
                                                       pol);
        }));

    // Online: one fresh RLS model per run, warm-started from the
    // offline weights.
    const auto online = bench::finish(
        "ML RW500 (online RLS)",
        bench::runPearlGrid(
            suite, "online", cfg, dba, [&trained, pol] {
                struct Holder : core::PowerPolicy
                {
                    ml::OnlineRidge model;
                    ml::OnlineMlPolicy policy;

                    explicit Holder(const ml::RidgeRegression &offline,
                                    ml::MlPolicyConfig cfg)
                        : model(static_cast<std::size_t>(
                                    ml::kNumFeatures),
                                10.0, 0.995),
                          policy(&model, 17, cfg)
                    {
                        model.warmStart(offline);
                    }

                    photonic::WlState
                    nextState(const core::WindowObservation &obs) override
                    {
                        return policy.nextState(obs);
                    }

                    const char *name() const override
                    {
                        return "online-ml";
                    }
                };
                return std::make_unique<Holder>(trained.model, pol);
            }));

    TextTable t({"config", "thru (flits/cyc)", "thru vs 64WL",
                 "laser (W)", "savings"});
    for (const auto *r : {&base, &reactive, &offline, &online}) {
        t.addRow({r->name,
                  TextTable::num(r->avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(r->avg.throughputFlitsPerCycle /
                                     base.avg.throughputFlitsPerCycle -
                                 1.0),
                  TextTable::num(r->avg.laserPowerW, 3),
                  TextTable::pct(1.0 - r->avg.laserPowerW /
                                           base.avg.laserPowerW)});
    }
    bench::emit(t);
    std::cout
        << "\nReading the result: online refinement moves along the\n"
           "power/throughput frontier rather than dominating the offline\n"
           "point — it adapts toward the demand it observes, which in a\n"
           "closed loop is partially shaped by its own throttling.  The\n"
           "trainOnlyUnthrottled guard (see ml/online_ridge.hpp) bounds\n"
           "that feedback; the residual bias is the online analogue of\n"
           "the label-contamination issue the paper raises for the\n"
           "buffer-utilization label.\n";
    return 0;
}
