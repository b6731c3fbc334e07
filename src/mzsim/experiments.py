"""Circuit builders, closed forms and the one owner of each experiment kind.

Interferometer (eraser) — two qubits.  H(q0), CNOT(q0->q1), H(q0) marks
which path the q0 "photon" took on q1; a trailing H(q1) erases the marker
and restores interference, collapsing the uniform 4-outcome distribution
to {00: 1/2, 11: 1/2}.

Object detection (bomb tester) — same interferometer with the CNOT acting
as a 100%-efficient probe.  With the probe present the outcomes split
50/25/25 between absorption (q1 = 1), interaction-free detection (10) and
an inconclusive click (00), so the single-stage detection efficiency is
eta = P(10) / (1 - P(00)) = 1/3.  The multi-stage generalization chains N
beamsplitter analogs RY(theta_i) on q0, each followed by a CNOT onto a
fresh marker qubit, with sum(theta_i) = pi.  Its efficiency is

    eta = prod_i cos^2(theta_i/2)
          / (1 - sin^2(theta_N/2) * prod_{i<N} cos^2(theta_i/2))

which for equal angles theta_i = pi/N approaches 1 as N grows (the Zeno
regime).

Joint-probability paradox (Hardy test) — three qubits.  RY(theta_i) on
q0/q1, a CCX witness onto q2, then RY(pi - theta_i) rotate back.  The
paradoxical joint probability, post-selected on the witness qubit reading
0, is

    gamma = sin^2(t1) sin^2(t0) / (4 (2 cos(t1) sin^2(t0/2) + cos(t0) + 3))

maximized at gamma* = (5*sqrt(5) - 11)/2 ~ 0.0902 near theta = 0.575 pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import _as_distribution, eta_from_counts, gamma_from_counts
from .circuit import Circuit
from .states import MAX_QUBITS

#: sum(theta_i) must equal pi this tightly for a valid detection chain
ANGLE_SUM_TOL = 1e-9

#: global maximum of the equal-angle joint probability, (5*sqrt(5)-11)/2
GAMMA_MAX = 0.5 * (5.0 * np.sqrt(5.0) - 11.0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_eraser(erase: bool) -> Circuit:
    """Two-qubit interferometer with a path marker; erase=True restores fringes."""
    c = Circuit(2, 2, name="eraser" if erase else "marker")
    c.h(0).cx(0, 1)
    if erase:
        c.h(1)
    c.h(0)
    c.measure(0, 0).measure(1, 1)
    return c


def build_bomb(present: bool) -> Circuit:
    """Single-stage detection circuit; present=False leaves the probe out."""
    c = Circuit(2, 2, name="bomb" if present else "empty")
    c.h(0)
    if present:
        c.cx(0, 1)
    c.h(0)
    c.measure(0, 0).measure(1, 1)
    return c


def validate_chain_angles(angles) -> tuple[float, ...]:
    thetas = tuple(float(t) for t in angles)
    if len(thetas) < 2:
        raise ValueError(f"need at least 2 angles, got {len(thetas)}")
    if any(t < 0 or t > np.pi for t in thetas):
        raise ValueError(f"angles must lie in [0, pi]: {thetas}")
    total = float(np.sum(thetas))
    if abs(total - np.pi) > ANGLE_SUM_TOL:
        raise ValueError(f"angles must sum to pi within {ANGLE_SUM_TOL}, got {total!r}")
    return thetas


def build_general_bomb(angles) -> Circuit:
    """Multi-stage detection chain on len(angles) qubits.

    q0 carries the photon through RY(theta_1) ... RY(theta_N); after the
    i-th rotation a CNOT marks qubit i.  Angles must sum to pi.
    """
    return _chain(validate_chain_angles(angles))


def _chain(thetas: tuple[float, ...]) -> Circuit:
    """`build_general_bomb` of angles that `validate_chain_angles` returned."""
    n = len(thetas)
    c = Circuit(n, n, name="chain")
    c.ry(thetas[0], 0)
    for i in range(1, n):
        c.cx(0, i)
        c.ry(thetas[i], 0)
    c.measure_all()
    return c


def build_hardy(theta0: float, theta1: float) -> Circuit:
    """Three-qubit joint-probability circuit with a CCX witness on q2."""
    for label, t in (("theta0", theta0), ("theta1", theta1)):
        if not 0.0 <= t <= np.pi:
            raise ValueError(f"{label} must lie in [0, pi], got {t}")
    c = Circuit(3, 3, name="hardy")
    c.ry(theta0, 0).ry(theta1, 1)
    c.ccx(0, 1, 2)
    c.ry(np.pi - theta0, 0).ry(np.pi - theta1, 1)
    c.measure_all()
    return c


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def eta_equal_bs(n: int) -> float:
    """Detection efficiency of the equal-angle chain (theta_i = pi/n)."""
    if n < 2:
        raise ValueError(f"need n >= 2 beamsplitter analogs, got {n}")
    c = np.cos(np.pi / (2 * n))
    s2 = np.sin(np.pi / (2 * n)) ** 2
    return float(c ** (2 * n) / (1.0 - s2 * c ** (2 * (n - 1))))


def eta_general(angles) -> float:
    """Detection efficiency for an arbitrary angle chain summing to pi."""
    return _chain_eta(validate_chain_angles(angles))


def _chain_eta(thetas: tuple[float, ...]) -> float:
    """`eta_general` of angles that `validate_chain_angles` returned."""
    prod_all = float(np.prod([np.cos(t / 2) ** 2 for t in thetas]))
    prod_head = float(np.prod([np.cos(t / 2) ** 2 for t in thetas[:-1]]))
    denom = 1.0 - np.sin(thetas[-1] / 2) ** 2 * prod_head
    if denom < 1e-12:
        raise ValueError("degenerate chain: photon never reaches the detectors")
    return prod_all / denom


def equal_angles(n: int) -> tuple[float, ...]:
    return tuple(np.pi / n for _ in range(n))


def chain_angles_for_sweep(theta: float, n: int) -> tuple[float, ...]:
    """Sweep parametrization: theta_N = theta, the rest split (pi-theta) evenly."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_QUBITS:  # a chain of N stages is N qubits wide
        raise ValueError(f"a chain of N = {n} needs {n} qubits, more than "
                         f"the simulator's {MAX_QUBITS}")
    if not 0.0 < theta < np.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    head = (np.pi - theta) / (n - 1)
    return tuple([head] * (n - 1) + [theta])


def gamma_closed(theta0: float, theta1: float) -> float:
    """Post-selected joint probability of the (0, 0) outcome."""
    denom = 4.0 * (2.0 * np.cos(theta1) * np.sin(theta0 / 2) ** 2 + np.cos(theta0) + 3.0)
    if abs(denom) < 1e-12:
        return 0.0  # endpoint limit (theta0 = theta1 = pi)
    return float(np.sin(theta1) ** 2 * np.sin(theta0) ** 2 / denom)


def gamma_diagonal(theta: float) -> float:
    """Equal-angle special case, written in its reduced form."""
    return float(
        2.0 * np.sin(theta / 2) ** 4 * np.cos(theta / 2) ** 2 / (3.0 - np.cos(theta))
    )


def gamma_from_alpha_beta(alpha: float, beta: float) -> float:
    """Joint probability in the amplitude parametrization (|alpha| >= |beta|)."""
    a, b = abs(alpha), abs(beta)
    ab = a * b
    if ab >= 1.0:
        raise ValueError(f"|alpha*beta| must be < 1, got {ab}")
    return float((ab * (a - b) / (1.0 - ab)) ** 2)


def alpha_beta_from_theta(theta: float) -> tuple[float, float]:
    """Invert the substitution sin(t/2) = sqrt(ab/(1-ab)), cos(t/2) = (a-b)/sqrt(1-ab).

    Returns the unique (alpha, beta) with alpha >= beta >= 0 and
    alpha^2 + beta^2 = 1 that reproduces gamma_diagonal(theta).
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    s2 = np.sin(theta / 2) ** 2
    ab = s2 / (1.0 + s2)                # product |alpha*beta|
    diff = np.sqrt(max(1.0 - 2.0 * ab, 0.0))  # alpha - beta
    root = np.sqrt(diff * diff + 4.0 * ab)
    return float((root + diff) / 2.0), float((root - diff) / 2.0)


# ---------------------------------------------------------------------------
# experiment kinds: each kind's run settings, its spec and its sweep points
# ---------------------------------------------------------------------------

#: each kind's `run` settings: setting -> (the spec field it sets, its default or None if required)
RUN_SETTINGS = {
    "eraser": {"erase": ("erase", True)},
    "bomb": {"bomb": ("present", True)},
    "general-bomb": {"angles": ("angles", None)},
    "hardy": {"theta0": ("theta0", None), "theta1": ("theta1", None)},
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment and its parameters; all its kind decides is settled when made."""

    kind: str
    erase: bool = True
    present: bool = True
    angles: tuple[float, ...] = ()
    theta0: float = float("nan")
    theta1: float = float("nan")
    num_qubits: int = field(init=False, repr=False, compare=False)  # the circuit's width
    _circuit: Circuit = field(init=False, repr=False, compare=False)
    _observable: str = field(init=False, repr=False, compare=False)
    _labeling: str = field(init=False, repr=False, compare=False)  # eta's stage labeling
    _theory: float | dict = field(init=False, repr=False, compare=False)
    _parameters: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the one switch on kind; building the circuit checks every parameter and the width
        labeling = "multi-stage"
        if self.kind == "eraser":
            circuit = build_eraser(self.erase)
            observable = "distribution"
            theory = ({"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5} if self.erase
                      else {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
            parameters = {"erase": self.erase}
        elif self.kind == "bomb":
            circuit = build_bomb(self.present)
            # without the probe every shot reads 00, so eta is undefined
            observable = "eta" if self.present else "distribution"
            theory = 1.0 / 3.0 if self.present else {"00": 1.0, "01": 0.0, "10": 0.0, "11": 0.0}
            labeling = "single-stage"
            parameters = {"present": self.present}
        elif self.kind == "general-bomb":
            object.__setattr__(self, "angles", validate_chain_angles(self.angles))
            circuit = _chain(self.angles)
            observable = "eta"
            theory = _chain_eta(self.angles)
            parameters = {"angles_over_pi": [t / np.pi for t in self.angles]}
        elif self.kind == "hardy":
            circuit = build_hardy(self.theta0, self.theta1)
            observable = "gamma"
            theory = gamma_closed(self.theta0, self.theta1)
            parameters = {"theta0_over_pi": self.theta0 / np.pi,
                          "theta1_over_pi": self.theta1 / np.pi}
        else:
            raise ValueError(f"unknown experiment {self.kind!r}; choose from {tuple(RUN_SETTINGS)}")
        vars(self).update(_circuit=circuit, num_qubits=circuit.num_qubits, _observable=observable,
                          _labeling=labeling, _theory=theory, _parameters=parameters)

    def build(self) -> Circuit:
        """A copy of the circuit built when this spec was made."""
        return self._circuit.copy()

    def value(self, counts) -> float | dict:
        """observable() read from counts or a distribution (keys sorted)."""
        if self._observable == "distribution":
            return dict(sorted(_as_distribution(counts).items()))
        if self._observable == "eta":
            return eta_from_counts(counts, labeling=self._labeling)
        return gamma_from_counts(counts)

    def parameters(self) -> dict:
        """This kind's parameters, angles in units of pi."""
        return self._parameters

    def observable(self) -> str:
        """Name of the derived quantity this experiment reports."""
        return self._observable

    def theory(self):
        """Closed-form prediction: a float, or a distribution where natural."""
        return self._theory


def sweep_points(kind: str, n_values, thetas, hardy_grid: str):
    """A sweep over `thetas` (units of pi, as its rows report them): yields its point
    count before it makes any, then each point as (what it is, its spec, its cells)."""
    if kind == "general-bomb":
        yield len(n_values) * len(thetas)
        if not n_values:
            raise ValueError("general-bomb sweep needs --n-values")
        for n in n_values:
            for t in thetas:
                if not 0.0 < t < 1.0:
                    raise ValueError(f"theta/pi must lie strictly inside (0, 1), got {t}")
                spec = ExperimentSpec(kind, angles=chain_angles_for_sweep(t * np.pi, n))
                yield (f"a chain of N = {n}", spec,
                       {"theta_over_pi": t, "theta0_over_pi": "", "theta1_over_pi": ""})
    elif kind == "hardy":
        diagonal = hardy_grid == "diagonal"
        yield len(thetas) if diagonal else len(thetas) ** 2
        for t0 in thetas:
            for t1 in [t0] if diagonal else thetas:
                spec = ExperimentSpec(kind, theta0=t0 * np.pi, theta1=t1 * np.pi)
                yield ("a Hardy test", spec, {"theta0_over_pi": t0, "theta1_over_pi": t1,
                                              "theta_over_pi": t0 if diagonal else ""})
    else:
        raise ValueError(f"sweep supports general-bomb and hardy, not {kind!r}")
