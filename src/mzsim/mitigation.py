"""Measurement error mitigation via confusion-matrix unmixing.

The confusion matrix M is column-stochastic: M[i, j] is the probability of
*reading* bitstring i when bitstring j was prepared.  Mitigation solves

    minimize ||M x - p||_2   subject to   x >= 0,  sum(x) = 1

where p is the empirical distribution.  When the plain linear solve
M^{-1} p already satisfies the constraints it *is* the optimum (zero
residual).  Otherwise the nonnegativity boundary is active, and the
fallback projects p onto the probability simplex in the metric of M
(Smolin, Gambetta & Smith, PRL 108, 070502, 2012) and meets sum(x) = 1
exactly.  It is a primal active-set method (Lawson & Hanson, Solving Least
Squares Problems, 1974, ch. 23, with sum(x) = 1 added).  The support starts as
that of the direct solve projected onto the simplex (Condat, Math. Program.
158, 575, 2016), and each step solves the problem on the support exactly from
one KKT system.  A solution positive on the support, with the gradient
M^T (M x - p) no lower off it, is the optimum; one positive but with a lower
gradient off the support adds the index of lowest gradient; otherwise x moves
toward the solution until a support entry reaches 0 and leaves.  The result
is clipped and renormalised as the direct solve's is.

An exact confusion matrix keeps its 2x2 factors F_k, and M is their
Kronecker product.  Then y = M^-1 p is one sweep of the inverses F_k^-1, a
2x2 product per qubit, O(n 2^n).  `mitigate` takes the fallback, starting
from y, when min(y) < -1e-10 - margin; otherwise the dense LU solve decides
as it always did, and is the output when it is not negative.  The margin is
16 * 2^n * kappa^2 * eps, kappa the 2-norm condition number.  It is meant to
cover |y - LU solve|, but it is an estimate checked on samples, not a proven
bound: ||M|| >= 1 for a column-stochastic M, so ||M^-1 p|| <= kappa; the
LU's forward error is about 2^n * kappa * eps times that, the sweep's about
n * kappa * eps, and the 16 was chosen from random inputs.  On about 80,000
of them (1-9 qubits) the largest |y - LU| was 1/17 of the margin.  Where the
margin holds, the fallback runs where the LU would send it.  Its output is
the final support solve, and the start only steers which supports the loop
visits, so the output bits stay those of the LU-started loop as long as
both end on the same support.  That held on about 18,000 random inputs and
every pinned input in the tests; it is not guaranteed.  An optimum near
degenerate, whose KKT test passes within _KKT_TOL on two supports, could end
on the other one from the other start, and the output would then move at
about the 1e-10 level.  The gradient M^T (M z - p) is the dense product for
every matrix.  A matrix without factors (sampled or loaded) keeps the dense
solve.

The solves and products run in BLAS/LAPACK, whose last bits may depend on
the number of BLAS threads.  With OpenBLAS 0.3.31 on a 2-core host, the
sparse 7- to 10-qubit inputs in `tests/test_mitigation.py` run no direct
solve, whose bits follow the thread count.  Under OPENBLAS_NUM_THREADS=1 every
intermediate of the 7- to 9-qubit ones keeps its bits, the dense gradient
included, and so does the 10-qubit one's factor solve.  What still changes
there is the output's own arithmetic, its one support solve: the Gram
matrix of its 126 support columns of 1024 rows, and, given the same Gram
matrix, the 127x127 KKT solve; with them the output bytes change.  Those
tests pin the bytes of the default thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import _as_distribution
from .circuit import CountsHistogram
from .noise import DeviceModel
from .states import bitstring_of

#: above this condition number the unmixing is numerically meaningless
CONDITION_LIMIT = 1e8
#: support solves the fallback makes before it gives up
_MAX_STEPS = 5000
#: slack of the KKT inequality on the gradient off the support
_KKT_TOL = 1e-13


class IllConditionedMatrixError(ValueError):
    """Confusion matrix is too close to singular to invert responsibly."""


@dataclass(frozen=True)
class ConfusionMatrix:
    num_qubits: int
    matrix: np.ndarray = field(repr=False)
    #: per-qubit 2x2 matrices whose Kronecker product is `matrix`, if known
    factors: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        dim = 2**self.num_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        if np.any(m < -1e-12) or np.any(m > 1 + 1e-12):
            raise ValueError("confusion entries must lie in [0, 1]")
        col_sums = m.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > 1e-9:
            raise ValueError(f"columns must sum to 1, got {col_sums}")
        object.__setattr__(self, "matrix", m)
        if self.factors and len(self.factors) != self.num_qubits:
            raise ValueError(f"expected {self.num_qubits} factors, got {len(self.factors)}")

    def condition_number(self) -> float:
        """2-norm condition number, computed once per matrix.  The singular
        values of a Kronecker product are the products of its factors'
        singular values, so with factors this needs no SVD of the full
        matrix, only one stacked `cond` of the 2x2 factors."""
        return self._condition

    @cached_property
    def _condition(self) -> float:
        if self.factors:
            return math.prod(np.linalg.cond(np.stack(self.factors)).tolist())
        return float(np.linalg.cond(self.matrix))

    @cached_property
    def _inverses(self) -> np.ndarray:
        """The factors' inverses, stacked.  Read only after the condition check,
        which refuses a singular factor."""
        return np.linalg.inv(np.stack(self.factors))


def _readout_pairs(device: DeviceModel, qubits: int | tuple[int, ...]) -> list:
    """(p01, p10) of each qubit in `qubits`, a sequence or a count k for 0..k-1."""
    qubits = range(qubits) if isinstance(qubits, (int, np.integer)) else tuple(qubits)
    if any(not 0 <= q < device.num_qubits for q in qubits):
        raise ValueError(f"asked for qubits {list(qubits)} on {device.num_qubits}-qubit device")
    return [device.readout[q] for q in qubits]


def _kron(factors) -> np.ndarray:
    """Kronecker product of 2x2 `factors`, the first one's index bit the most
    significant.  Each factor's four entries scale the product so far into
    strided slices: the same products as a chain of `np.kron`, in the same order."""
    m = np.ones((1, 1))
    for factor in factors:
        dim = len(m)
        out = np.empty((dim, 2, dim, 2))
        for a in range(2):
            for b in range(2):
                np.multiply(m, factor[a, b], out=out[:, a, :, b])
        m = out.reshape(2 * dim, 2 * dim)
    return m


def exact_confusion_matrix(device: DeviceModel, qubits: int | tuple[int, ...]) -> ConfusionMatrix:
    """Tensor product of the flip matrices [[1-p01, p10], [p01, 1-p10]] of `qubits`,
    the measured qubits in key order (an int k means qubits 0..k-1)."""
    factors = tuple(np.array([[1 - p01, p10], [p01, 1 - p10]])
                    for p01, p10 in _readout_pairs(device, qubits))
    return ConfusionMatrix(num_qubits=len(factors), matrix=_kron(factors), factors=factors)


def build_confusion_matrix(
    device: DeviceModel, qubits: int | tuple[int, ...], shots: int, seed: int
) -> ConfusionMatrix:
    """Estimate the confusion matrix by calibration sampling.

    Column j: prepare basis state j of `qubits` (as in `exact_confusion_matrix`)
    exactly, read it out `shots` times under their readout flips, tally the results.
    The flips come from `np.random.default_rng(seed)`: no CLI command calls
    this library function, so numpy.random is imported only when it runs.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    pairs = _readout_pairs(device, qubits)
    num_qubits = len(pairs)
    dim = 2**num_qubits
    p01, p10 = np.array(pairs, dtype=float).reshape(-1, 2).T
    m = np.zeros((dim, dim))
    rng = np.random.default_rng(seed)
    weights = 1 << np.arange(num_qubits - 1, -1, -1)  # q0 is the MSB
    for j in range(dim):
        prepared = np.array([int(b) for b in bitstring_of(j, num_qubits)])
        flip_prob = np.where(prepared == 1, p10, p01)
        flips = rng.random((shots, num_qubits)) < flip_prob
        read = np.bitwise_xor(prepared, flips.astype(int))
        indices = read @ weights
        m[:, j] = np.bincount(indices, minlength=dim) / shots
    return ConfusionMatrix(num_qubits=num_qubits, matrix=m)


def _as_probability_vector(data, num_qubits: int | None = None) -> tuple[np.ndarray, int]:
    """Accept a CountsHistogram, a bitstring->weight mapping, or a vector;
    all three are weighed and normalised by `analysis._as_distribution`."""
    if not isinstance(data, (CountsHistogram, dict)):
        vec = np.asarray(data, dtype=float).ravel()
        if not len(vec):
            raise ValueError("empty probability vector")
        n = int(np.log2(len(vec)))
        if 2**n != len(vec):
            raise ValueError(f"vector length {len(vec)} is not a power of two")
        if num_qubits is not None and n != num_qubits:
            raise ValueError(f"vector of {len(vec)} entries does not fit {num_qubits} qubits")
        # keys in index order; a 1-entry vector (n = 0) gets the one key "0"
        dist = _as_distribution({bitstring_of(i, n): w for i, w in enumerate(vec)})
        return np.fromiter(dist.values(), float, len(vec)), n
    dist = _as_distribution(data)
    n = len(next(iter(dist))) if num_qubits is None else num_qubits
    vec = np.zeros(2**n)
    for key, p in dist.items():
        if len(key) != n:
            raise ValueError(f"key {key!r} does not have {n} bits")
        vec[int(key, 2)] = p
    return vec, n


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum(x) = 1}."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u * np.arange(1, len(u) + 1) > excess)[-1]
    return np.maximum(v - excess[rho] / (rho + 1), 0.0)


def _support_solve(m: np.ndarray, p: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, float]:
    """The minimiser z of ||M x - p|| with sum(x) = 1 and x = 0 off `support`,
    and its multiplier: the gradient M^T (M z - p) is -multiplier on the support."""
    cols = m[:, support]
    k = cols.shape[1]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = cols.T @ cols
    kkt[k, k] = 0.0
    solution = np.linalg.solve(kkt, np.append(cols.T @ p, 1.0))
    z = np.zeros(len(p))
    z[support] = solution[:k]
    return z, solution[k]


def _simplex_least_squares(m: np.ndarray, p: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Minimise ||M x - p|| over the probability simplex, starting from `start`,
    M^-1 p from the LU or the factors.  See the module docstring."""
    x = _project_to_simplex(start)
    support = x > 0.0
    for _ in range(_MAX_STEPS):
        z, multiplier = _support_solve(m, p, support)
        if z[support].min() > 0.0:
            gradient = m.T @ (m @ z - p)
            if gradient.min() >= -multiplier - _KKT_TOL:
                return z
            support[np.argmin(np.where(support, np.inf, gradient))] = True
            x = z
        else:
            # move toward z until the first support entry reaches 0, and drop it
            shrinking = np.flatnonzero(support & (z <= 0.0))
            ratios = x[shrinking] / (x[shrinking] - z[shrinking])
            first = np.argmin(ratios)
            x = x + ratios[first] * (z - x)
            x[shrinking[first]] = 0.0
            support[shrinking[first]] = False
    raise ValueError("mitigation fallback did not converge")


def _kron_apply(factors, v: np.ndarray) -> np.ndarray:
    """(F_0 (x) F_1 (x) ...) v for the 2x2 `factors` F_k: one 2x2 product per
    qubit, qubit k's bit the k-th most significant of the index."""
    for k, factor in enumerate(factors):
        v = factor @ v.reshape(2**k, 2, -1)
    return v.reshape(-1)


def mitigate(counts, confusion: ConfusionMatrix) -> dict[str, float]:
    """Recover the pre-readout distribution from measured counts.

    Accepts a CountsHistogram, a bitstring->weight mapping (weights may be
    exact probabilities), or a plain probability vector.  Returns a dict
    keyed by bitstring whose values are a valid distribution: nonnegative,
    summing to 1 within 1e-9.
    """
    cond = confusion.condition_number()
    if cond > CONDITION_LIMIT:
        raise IllConditionedMatrixError(
            f"confusion matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    p, n = _as_probability_vector(counts, confusion.num_qubits)
    m = confusion.matrix

    x = _kron_apply(confusion._inverses, p) if confusion.factors else None
    # the factors decide only beyond the margin, a sampled estimate of |y - LU solve|
    # (module docstring); elsewhere the direct solve does, and may be the output
    margin = 16 * 2**n * cond**2 * np.finfo(float).eps
    if x is None or x.min() >= -1e-10 - margin:
        x = np.linalg.solve(m, p)
    if x.min() < -1e-10:
        # boundary case: project onto the probability simplex properly
        x = _simplex_least_squares(m, p, x)
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    fmt = f"0{n}b"
    return dict(zip([format(i, fmt) for i in range(2**n)], x.tolist()))


def total_variation_distance(p, q) -> float:
    """TV distance between two distributions (dicts, histograms, or vectors)."""
    pv, n1 = _as_probability_vector(p)
    qv, n2 = _as_probability_vector(q)
    if n1 != n2:
        raise ValueError(f"distributions live on {n1} vs {n2} qubits")
    return 0.5 * float(np.abs(pv - qv).sum())
