"""repro -- reproduction of "Energy-Efficient Hybrid Stochastic-Binary Neural
Networks for Near-Sensor Computing" (Lee, Alaghi, Hayes, Sathe, Ceze --
DATE 2017).

The package is organized bottom-up, mirroring the paper's stack:

* :mod:`repro.bitstream` -- stochastic number encodings and the
  :class:`~repro.bitstream.Bitstream` container.
* :mod:`repro.rng` -- number sources (LFSR, low-discrepancy, ramp) and
  stochastic number generators.
* :mod:`repro.sc` -- stochastic arithmetic elements (including the paper's
  TFF adder) and the stochastic dot-product / convolution engines.
* :mod:`repro.netlist` -- a gate-level netlist substrate with a 65 nm-like
  cell library, cycle simulation, and area / power estimation (stands in for
  the Synopsys synthesis flow of Section VI).
* :mod:`repro.nn` -- a from-scratch numpy neural-network library (layers,
  backprop, training) standing in for TensorFlow/Keras, plus quantization and
  retraining utilities.
* :mod:`repro.hybrid` -- the hybrid stochastic-binary network: simulated
  sensor acquisition, the stochastic first layer, and the binary remainder.
* :mod:`repro.datasets` -- the MNIST-like digit dataset used for evaluation.
* :mod:`repro.hw` -- area / power / energy models of the stochastic and
  binary convolution engines (Table 3, bottom half).
* :mod:`repro.eval` -- the experiment harness that regenerates every table.
"""

from . import bitstream, datasets, eval, hw, hybrid, netlist, nn, rng, sc, utils
from .bitstream import Bitstream
from .hybrid import HybridStochasticBinaryNetwork, SensorFrontEnd
from .nn import Sequential, build_lenet5_small, quantize_and_freeze, retrain
from .rng import ComparatorSNG, LFSRSource, RampCompareSNG, VanDerCorputSource
from .sc import (
    MuxAdder,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    new_sc_engine,
    old_sc_engine,
)

__version__ = "0.1.0"

__all__ = [
    "Bitstream",
    "ComparatorSNG",
    "RampCompareSNG",
    "LFSRSource",
    "VanDerCorputSource",
    "TffAdder",
    "MuxAdder",
    "StochasticDotProductEngine",
    "StochasticConv2D",
    "new_sc_engine",
    "old_sc_engine",
    "SensorFrontEnd",
    "HybridStochasticBinaryNetwork",
    "Sequential",
    "build_lenet5_small",
    "quantize_and_freeze",
    "retrain",
    "bitstream",
    "rng",
    "sc",
    "netlist",
    "nn",
    "hybrid",
    "datasets",
    "hw",
    "eval",
    "utils",
    "__version__",
]
