/**
 * @file
 * Regenerates Table III (the 30-feature list of the dynamic laser
 * scaling model) and the Section IV-B hardware-cost numbers of the
 * inference unit (44.6 pJ per prediction, 178.4 uW at RW500).
 */

#include "bench_common.hpp"
#include "ml/cost_model.hpp"
#include "ml/features.hpp"

using namespace pearl;

int
main()
{
    bench::banner("Table III — Dynamic Laser Scaling Feature List",
                  "Table III + Section IV-B cost estimate");

    TextTable t({"#", "feature"});
    const auto &names = ml::FeatureExtractor::names();
    for (std::size_t i = 0; i < names.size(); ++i)
        t.addRow({std::to_string(i + 1), names[i]});
    t.print(std::cout);

    ml::MlCostModel cost;
    std::cout << "\nInference-unit cost (Section IV-B):\n";
    TextTable c({"quantity", "model", "paper"});
    c.addRow({"multiplies per prediction",
              std::to_string(cost.multiplies()), "~30"});
    c.addRow({"adds per prediction", std::to_string(cost.adds()), "~29"});
    c.addRow({"energy per prediction (pJ)",
              TextTable::num(cost.inferenceEnergyJ() * 1e12, 1), "44.6"});
    c.addRow({"compute time (ns)", TextTable::num(cost.computeTimeNs, 0),
              "5"});
    c.addRow({"avg power at RW500 (uW)",
              TextTable::num(cost.averagePowerW(500) * 1e6, 1), "178.4"});
    c.addRow({"multiplier power at RW500 (uW)",
              TextTable::num(cost.multiplierPowerW(500) * 1e6, 1), "132"});
    c.print(std::cout);
    return 0;
}
