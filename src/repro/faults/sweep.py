"""Accuracy-vs-fault-rate degradation curves (the ``repro faults`` sweep).

This module measures the paper's graceful-degradation claim end to end: the
stochastic first conv layer and a matched binary fixed-point baseline are
exposed to the *same* per-bit soft-error rate, and the sweep records how each
side's sign map degrades relative to its own fault-free reference.

* **SC side** -- a :class:`~repro.sc.convolution.StochasticConv2D` layer
  whose engine carries a :class:`~repro.faults.FaultSpec` with the given
  ``flip_rate``: every input stream bit flips independently with that
  probability, so one upset perturbs the encoded value by ``1/N``.
* **Binary side** -- the same convolution evaluated as exact fixed-point
  integer accumulation (``precision``-bit pixels times ``precision``-bit
  bipolar weights into a ``2 * precision + 5``-bit accumulator, the
  :class:`~repro.hw.binary_engine.BinaryEngineModel` datapath), with the same
  per-bit rate applied to the accumulator words' two's-complement bits via
  :func:`~repro.faults.flip_binary_words`.  One upset there swings the value
  by up to ``2**(bits-1)`` -- the catastrophic high-order-bit failure mode.

The swept ``rate`` is a per-bit **per-cycle** upset probability, because soft
errors strike storage per unit time: an SC stream bit lives for exactly one
engine cycle (one upset opportunity, probability ``rate``), while the binary
accumulator word is held across the ``taps`` MAC cycles it takes to produce
one output.  The binary injection therefore uses the net parity of ``taps``
independent per-cycle flips per bit, ``(1 - (1 - 2 rate)**taps) / 2`` --
``taps * rate`` to first order (see ``_binary_word_rate``).  This still
*understates* the binary engine's exposure: its window/weight registers are
ignored and its exponentially higher matched-throughput clock (see
:mod:`repro.hw.binary_engine`) would multiply the per-cycle opportunity
count again.

The degradation metric is *sign agreement*: the fraction of (patch, filter)
sign activations that match the fault-free evaluation, averaged over
``trials`` independent fault seeds.  Both injections run on the shared
counter-hashed mask machinery (:mod:`repro.faults.masks`), so the whole sweep
is seed-deterministic and tiling independent.

``write_artifact`` merges the curve into ``BENCH_faults.json`` using the same
section-merge convention as the benchmark suite's ``BENCH_packed.json``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..datasets.synthetic import generate_digits
from ..nn.quantization import prepare_first_layer_weights
from ..sc.convolution import StochasticConv2D
from ..sc.dotproduct import new_sc_engine
from ..utils.checks import check_count
from ..utils.windows import extract_patches
from .binary import flip_binary_words
from .spec import FaultSpec

__all__ = [
    "DEFAULT_RATES",
    "FaultSweepConfig",
    "FaultSweepResult",
    "run_fault_sweep",
    "format_fault_sweep",
    "write_artifact",
    "parse_rates",
]

#: Default per-bit flip rates: a fault-free sanity row plus four decades.
DEFAULT_RATES: tuple[float, ...] = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class FaultSweepConfig:
    """Geometry and seeding of one degradation sweep."""

    #: Per-bit flip probabilities swept (applied to SC stream bits and to
    #: binary accumulator bits alike).
    rates: tuple[float, ...] = DEFAULT_RATES
    #: Stream precision: streams are ``2**precision`` bits long and the
    #: binary datapath quantizes pixels/weights to the same grid.
    precision: int = 8
    #: Number of synthetic digit images convolved.
    images: int = 6
    #: Number of convolution kernels (filters).
    filters: int = 8
    #: Square kernel side; padding is ``kernel // 2`` ("same"-style).
    kernel: int = 5
    #: Master seed: fixes the dataset, the kernels and the fault seeds.
    seed: int = 0
    #: Independent fault seeds averaged per rate.
    trials: int = 2

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("rates must not be empty")
        for rate in self.rates:
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"fault rates must lie in [0, 1], got {rate}")
        check_count("precision", self.precision, 2)
        for name in ("images", "filters", "kernel", "trials"):
            check_count(name, getattr(self, name))


@dataclass
class FaultSweepResult:
    """One degradation curve: per-rate rows plus the geometry that made them."""

    config: FaultSweepConfig
    #: Binary accumulator width in bits (sign included).
    accumulator_bits: int
    #: One dict per swept rate with sign-agreement and value-RMSE columns.
    rows: list = field(default_factory=list)

    def to_section(self) -> dict:
        """The JSON-serializable ``fault_sweep`` artifact section."""
        cfg = self.config
        return {
            "rates": list(cfg.rates),
            "precision": cfg.precision,
            "stream_bits": 1 << cfg.precision,
            "accumulator_bits": self.accumulator_bits,
            "images": cfg.images,
            "filters": cfg.filters,
            "kernel": cfg.kernel,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "rows": self.rows,
        }


def _make_kernels(config: FaultSweepConfig) -> np.ndarray:
    """Deterministic conditioned kernel bank (scaled + quantized weights)."""
    rng = np.random.default_rng(config.seed + 1)
    raw = rng.standard_normal((config.filters, config.kernel, config.kernel))
    return prepare_first_layer_weights(raw, config.precision)


def _binary_accumulators(
    patches: np.ndarray, kernels: np.ndarray, precision: int
) -> tuple[np.ndarray, float]:
    """Exact fixed-point accumulators of the binary sliding-window engine.

    Pixels quantize to the unipolar grid ``q / L`` (``q`` in ``0..L``) and
    weights to the bipolar grid ``2 m / L`` (``m`` in ``-L/2..L/2``), so the
    integer accumulator ``sum(q * m)`` relates to the real dot product by the
    returned ``value_scale = 2 / L**2``.
    """
    length = 1 << precision
    pixels = np.rint(patches * length).astype(np.int64)
    flat_kernels = kernels.reshape(kernels.shape[0], -1)
    weights = np.rint(flat_kernels * (length // 2)).astype(np.int64)
    acc = pixels @ weights.T  # (total_patches, filters)
    return acc, 2.0 / float(length) ** 2


def _binary_word_rate(rate: float, cycles: int) -> float:
    """Net per-bit flip probability of a word exposed for ``cycles`` cycles.

    Each cycle flips the bit independently with probability ``rate``; an even
    number of hits cancels, so the net probability is the XOR parity
    ``(1 - (1 - 2 rate)**cycles) / 2`` (~``cycles * rate`` for small rates).
    """
    return 0.5 * (1.0 - (1.0 - 2.0 * float(rate)) ** int(cycles))


def _fault_seed(config: FaultSweepConfig, trial: int) -> int:
    """Per-trial fault seed derived from the master seed (distinct primes)."""
    return (config.seed * 7919 + trial * 104729 + 13) % (1 << 63)


def run_fault_sweep(config: FaultSweepConfig = FaultSweepConfig()) -> FaultSweepResult:
    """Run the degradation sweep and return the per-rate curve."""
    images, _ = generate_digits(config.images, rng=config.seed)
    kernels = _make_kernels(config)
    padding = config.kernel // 2

    engine = new_sc_engine(precision=config.precision)
    clean = StochasticConv2D(kernels, engine=engine, padding=padding).forward(images)

    taps = config.kernel * config.kernel
    patches = extract_patches(
        images, (config.kernel, config.kernel), 1, padding
    ).reshape(-1, taps)
    acc, value_scale = _binary_accumulators(patches, kernels, config.precision)
    bits = 2 * config.precision + 5  # BinaryEngineModel.accumulator_bits
    clean_binary_sign = np.sign(acc)

    result = FaultSweepResult(config=config, accumulator_bits=bits)
    for rate in config.rates:
        word_rate = _binary_word_rate(float(rate), taps)
        sc_agree, bin_agree, sc_rmse, bin_rmse = [], [], [], []
        for trial in range(config.trials):
            fault_seed = _fault_seed(config, trial)
            spec = FaultSpec(flip_rate=float(rate), seed=fault_seed)
            faulted = StochasticConv2D(
                kernels,
                engine=dataclasses.replace(engine, faults=spec),
                padding=padding,
            ).forward(images)
            sc_agree.append(float(np.mean(faulted.sign == clean.sign)))
            sc_rmse.append(
                float(np.sqrt(np.mean((faulted.value - clean.value) ** 2)))
            )

            faulted_acc = flip_binary_words(acc, bits, word_rate, fault_seed)
            bin_agree.append(
                float(np.mean(np.sign(faulted_acc) == clean_binary_sign))
            )
            bin_rmse.append(
                float(
                    np.sqrt(np.mean(((faulted_acc - acc) * value_scale) ** 2.0))
                )
            )
        result.rows.append(
            {
                "rate": float(rate),
                "binary_word_rate": word_rate,
                "sc_sign_agreement": float(np.mean(sc_agree)),
                "binary_sign_agreement": float(np.mean(bin_agree)),
                "sc_value_rmse": float(np.mean(sc_rmse)),
                "binary_value_rmse": float(np.mean(bin_rmse)),
            }
        )
    return result


def format_fault_sweep(result: FaultSweepResult) -> str:
    """Human-readable degradation table."""
    cfg = result.config
    lines = [
        "Fault-injection degradation sweep "
        f"(precision={cfg.precision}, N={1 << cfg.precision} stream bits, "
        f"{cfg.filters}x{cfg.kernel}x{cfg.kernel} kernels, "
        f"{cfg.images} images, {cfg.trials} trial(s))",
        f"binary baseline: {result.accumulator_bits}-bit accumulator words "
        "exposed for one MAC pass (same per-bit per-cycle upset rate)",
        "",
        f"{'rate':>10}  {'SC agree':>9}  {'bin agree':>9}  "
        f"{'SC rmse':>9}  {'bin rmse':>9}",
    ]
    for row in result.rows:
        lines.append(
            f"{row['rate']:>10.2e}  {row['sc_sign_agreement']:>9.4f}  "
            f"{row['binary_sign_agreement']:>9.4f}  "
            f"{row['sc_value_rmse']:>9.4f}  {row['binary_value_rmse']:>9.4f}"
        )
    lines.append("")
    lines.append(
        "sign agreement = fraction of (patch, filter) sign activations "
        "matching the fault-free evaluation"
    )
    return "\n".join(lines)


def write_artifact(result: FaultSweepResult, path: Path) -> None:
    """Merge the sweep into a JSON artifact (``BENCH_faults.json``)."""
    path = Path(path)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data["fault_sweep"] = result.to_section()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def parse_rates(text: str) -> tuple[float, ...]:
    """Parse a comma-separated rate list (CLI helper)."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"invalid rate list {text!r}") from exc
    if not values:
        raise ValueError(f"invalid rate list {text!r}")
    return values
