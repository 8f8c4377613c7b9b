/**
 * @file
 * Regenerates Table V (optical component losses and powers) and derives
 * the per-state laser powers from the bottom-up loss budget, comparing
 * against the paper's calibrated values (Section IV-B).
 */

#include "bench_common.hpp"
#include "photonic/loss_budget.hpp"
#include "photonic/power_model.hpp"
#include "photonic/reservation.hpp"

using namespace pearl;

int
main()
{
    bench::banner("Table V — Optical components and laser power states",
                  "Table V + Section IV-B power values");

    photonic::DeviceConstants dev;
    TextTable t({"Component", "Value", "Unit"});
    t.addRow({"Modulator Insertion",
              TextTable::num(dev.modulatorInsertionDb, 1), "dB"});
    t.addRow({"Waveguide", TextTable::num(dev.waveguideDbPerCm, 1),
              "dB/cm"});
    t.addRow({"Coupler", TextTable::num(dev.couplerDb, 1), "dB"});
    t.addRow({"Splitter", TextTable::num(dev.splitterDb, 1), "dB"});
    t.addRow({"Filter Through", TextTable::num(dev.filterThroughDb, 5),
              "dB"});
    t.addRow({"Filter Drop", TextTable::num(dev.filterDropDb, 1), "dB"});
    t.addRow({"Photodetector", TextTable::num(dev.photodetectorDb, 1),
              "dB"});
    t.addRow({"Receiver Sensitivity",
              TextTable::num(dev.receiverSensitivityDbm, 0), "dBm"});
    t.addRow({"Ring Heating", TextTable::num(dev.ringHeatingW * 1e6, 0),
              "uW/ring"});
    t.addRow({"Ring Modulating",
              TextTable::num(dev.ringModulatingW * 1e6, 0), "uW/ring"});
    t.print(std::cout);

    photonic::LossBudget budget{dev, photonic::ChipGeometry{}};
    std::cout << "\nLoss budget:\n";
    TextTable b({"quantity", "value"});
    b.addRow({"worst-case data path loss (dB)",
              TextTable::num(budget.worstCasePathLossDb(), 2)});
    b.addRow({"reservation broadcast loss (dB)",
              TextTable::num(budget.reservationPathLossDb(), 2)});
    b.addRow({"required laser optical power per wavelength (uW)",
              TextTable::num(budget.requiredLaserOpticalW() * 1e6, 1)});
    b.addRow({"calibrated wall-plug efficiency",
              TextTable::pct(budget.calibratedEfficiency(), 2)});
    photonic::ReservationChannel res;
    b.addRow({"reservation packet (bits)",
              std::to_string(res.packetBits())});
    b.addRow({"reservation wavelengths",
              std::to_string(res.wavelengthsNeeded())});
    b.print(std::cout);

    std::cout << "\nLaser power per wavelength state "
              << "(network aggregate, Section IV-B):\n";
    photonic::PowerModel paper;
    photonic::PowerModel derived = photonic::PowerModel::fromLossBudget(
        budget, budget.calibratedEfficiency());
    TextTable p({"state", "paper (W)", "derived (W)"});
    for (int i = photonic::kNumWlStates - 1; i >= 0; --i) {
        const auto s = photonic::stateFromIndex(i);
        p.addRow({photonic::toString(s),
                  TextTable::num(paper.laserPowerW(s), 3),
                  TextTable::num(derived.laserPowerW(s), 3)});
    }
    p.print(std::cout);
    return 0;
}
