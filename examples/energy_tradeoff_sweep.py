#!/usr/bin/env python3
"""Energy / power / area trade-off sweep (paper Table 3, bottom half).

Sweeps the first-layer precision from 8 down to 2 bits and reports, for the
binary sliding-window convolution engine and the proposed stochastic engine:

* throughput-normalized power (the binary engine is clocked to match the
  stochastic engine's frame rate),
* energy per frame,
* die area,

first with the raw gate-count model and then calibrated to the paper's 8-bit
synthesis anchor (see :mod:`repro.hw.technology` and
:mod:`repro.hw.comparison` for the substitution rationale).  Ends with
the headline claims: break-even precision and the energy advantage at 4 bits.

Run with:  python examples/energy_tradeoff_sweep.py
"""

from repro.eval import format_table3_hardware, run_table3_hardware, summarize
from repro.eval.report import format_headline_claims
from repro.hw import BinaryEngineModel, StochasticEngineModel


def main() -> None:
    precisions = (8, 7, 6, 5, 4, 3, 2)

    print("Raw gate-count model (no calibration):")
    raw = run_table3_hardware(precisions, calibrate=False)
    print(format_table3_hardware(raw))
    print()

    print("Calibrated to the paper's 8-bit synthesis anchor:")
    calibrated = run_table3_hardware(precisions, calibrate=True)
    print(format_table3_hardware(calibrated))
    print()

    print("Where do the numbers come from?  One 8-bit design point in detail:")
    sc = StochasticEngineModel(8)
    binary = BinaryEngineModel(8)
    sc_report = sc.report()
    print(f"  stochastic engine: {len(sc.unit_netlist().instances)} cells/unit x "
          f"{sc.geometry.windows} units, {sc.cycles_per_frame()} cycles/frame, "
          f"{sc_report.frame_time_us:.1f} us/frame at {sc.tech.sc_clock_mhz:.0f} MHz")
    matched = binary.matched_frequency_mhz(sc_report.throughput_fps)
    print(f"  binary engine:     {len(binary.mac_netlist().instances)} cells/MAC x "
          f"{binary.unit_count} units, {binary.cycles_per_frame()} cycles/frame, "
          f"needs {matched:.0f} MHz to match the stochastic frame rate")
    print()

    claims = summarize(calibrated)
    print(format_headline_claims(claims))


if __name__ == "__main__":
    main()
