/**
 * @file
 * Regenerates Table II: the area overhead of the PEARL components,
 * including the dynamic-allocation and machine-learning hardware.
 */

#include "bench_common.hpp"
#include "core/area_model.hpp"

using namespace pearl;

int
main()
{
    bench::banner("Table II — Area overhead for PEARL",
                  "Table II, references [48][49][50]");

    core::AreaModel area;
    TextTable t({"Photonic and Electronic Component", "Area"});
    t.addRow({"Cluster (CPU, GPU and L1 cache)",
              TextTable::num(area.clusterMm2, 1) + " mm^2"});
    t.addRow({"L2 Cache per Cluster",
              TextTable::num(area.l2PerClusterMm2, 1) + " mm^2"});
    t.addRow({"Optical Components (MRRs and Waveguides)",
              TextTable::num(area.opticalComponentsMm2, 1) + " mm^2"});
    t.addRow({"Waveguide Width",
              TextTable::num(area.waveguideWidthUm, 2) + " um"});
    t.addRow({"MRR Diameter",
              TextTable::num(area.mrrDiameterUm, 1) + " um"});
    t.addRow({"L3 Cache", TextTable::num(area.l3Mm2, 1) + " mm^2"});
    t.addRow({"Router", TextTable::num(area.routerMm2, 3) + " mm^2"});
    t.addRow({"On-Chip laser per router",
              TextTable::num(area.laserPerRouterMm2, 3) + " mm^2"});
    t.addRow({"Dynamic Allocation",
              TextTable::num(area.dynamicAllocationMm2, 3) + " mm^2"});
    t.addRow({"Machine Learning",
              TextTable::num(area.machineLearningMm2, 3) + " mm^2"});
    t.print(std::cout);

    std::cout << "\nDerived totals:\n";
    TextTable d({"quantity", "value"});
    d.addRow({"Total chip area (16 clusters, 17 routers)",
              TextTable::num(area.totalMm2(), 1) + " mm^2"});
    d.addRow({"Adaptive (DBA+ML) overhead",
              TextTable::pct(area.adaptiveOverheadFraction(), 3)});
    d.print(std::cout);
    return 0;
}
