"""Observable extraction from counts, and run statistics.

The detection efficiency eta needs an explicit labeling mode because the
single-stage and multi-stage circuits place the interesting outcomes on
different bitstrings:

* "single-stage" (2 qubits): eta = P(10) / (1 - P(00)) — outcome 10 is an
  interaction-free detection, 00 is the inconclusive click.
* "multi-stage" (N qubits): eta = P(00...0) / (1 - P(10...0)) — all-zeros
  means the photon exited the chain undisturbed with no marker tripped,
  while 10...0 is the photon stuck in the chain (excluded).

Silently inferring the mode from key length would mislabel a 2-qubit
multi-stage chain, so callers must say which they mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CountsHistogram

#: below this, an eta denominator means "all shots in the excluded state"
DEGENERATE_TOL = 1e-12

LABELING_MODES = ("single-stage", "multi-stage")


def _as_distribution(counts) -> dict[str, float]:
    if isinstance(counts, CountsHistogram):
        mapping = {k: float(v) for k, v in counts.counts.items()}
    elif isinstance(counts, dict):
        mapping = {k: float(v) for k, v in counts.items()}
    else:
        raise TypeError(f"expected CountsHistogram or dict, got {type(counts).__name__}")
    if not mapping:
        raise ValueError("empty counts")
    for key, weight in mapping.items():
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"weight {weight} of {key!r} is not finite and nonnegative")
    lengths = {len(k) for k in mapping}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent bitstring lengths: {sorted(lengths)}")
    total = sum(mapping.values())
    if total <= 0:
        raise ValueError("counts carry no weight")
    return {k: v / total for k, v in mapping.items()}


def eta_from_counts(counts, *, labeling: str) -> float:
    """Detection efficiency from measured counts under an explicit labeling."""
    if labeling not in LABELING_MODES:
        raise ValueError(f"labeling must be one of {LABELING_MODES}, got {labeling!r}")
    dist = _as_distribution(counts)
    n = len(next(iter(dist)))
    if labeling == "single-stage":
        if n != 2:
            raise ValueError(f"single-stage labeling needs 2-qubit keys, got {n}")
        numer = dist.get("10", 0.0)
        denom = 1.0 - dist.get("00", 0.0)
    else:
        numer = dist.get("0" * n, 0.0)
        denom = 1.0 - dist.get("1" + "0" * (n - 1), 0.0)
    if denom < DEGENERATE_TOL:
        raise ValueError("degenerate counts: every shot landed in the excluded state")
    return numer / denom


def gamma_from_counts(counts) -> float:
    """Joint probability of 000 after post-selecting the witness qubit on 0.

    Keys are 3-bit strings q0 q1 q2; shots with q2 = 1 are discarded and
    the rest renormalized.
    """
    dist = _as_distribution(counts)
    n = len(next(iter(dist)))
    if n != 3:
        raise ValueError(f"expected 3-qubit keys, got {n}-bit strings")
    kept = {k: v for k, v in dist.items() if k[2] == "0"}
    total = sum(kept.values())
    if total < DEGENERATE_TOL:
        raise ValueError("post-selection rejected every shot (witness always read 1)")
    return kept.get("000", 0.0) / total


@dataclass(frozen=True)
class RunStatistics:
    """Aggregate of repeated runs of one observable against a reference."""

    mean: float
    std_dev: float           # population standard deviation (divide by n)
    absolute_error: float    # |mean - reference|
    relative_error: float    # absolute_error / |reference|
    reference: float
    n_runs: int


def run_statistics(values, reference: float) -> RunStatistics:
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one run")
    if reference == 0.0:
        raise ValueError("reference must be nonzero for a relative error")
    mean = float(vals.mean())
    std = float(np.sqrt(np.mean((vals - mean) ** 2)))
    abs_err = abs(mean - reference)
    return RunStatistics(
        mean=mean,
        std_dev=std,
        absolute_error=abs_err,
        relative_error=abs_err / abs(reference),
        reference=float(reference),
        n_runs=int(vals.size),
    )


def binomial_standard_error(p: float, shots: int) -> float:
    """Per-outcome standard error sqrt(p (1-p) / shots) of a frequency."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return float(np.sqrt(p * (1.0 - p) / shots))


def argmax_gamma(step: float) -> tuple[float, float]:
    """Grid-scan the equal-angle joint probability over theta in (0, pi).

    The grid is k*step for k = 1, 2, ... strictly inside (0, pi).  Returns
    (theta_star, gamma_star).
    """
    from .experiments import gamma_diagonal  # here, as experiments imports this module
    if not 0.0 < step < np.pi:
        raise ValueError(f"step must lie in (0, pi), got {step}")
    best_theta, best_gamma = None, -1.0
    k = 1
    while k * step < np.pi:
        theta = k * step
        g = gamma_diagonal(theta)
        if g > best_gamma:
            best_theta, best_gamma = theta, g
        k += 1
    return float(best_theta), float(best_gamma)
