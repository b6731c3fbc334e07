"""Input properties that decide what an optimisation of a layer can gain.

Both are computed from the inputs captured at a layer boundary, not from
the program's own bookkeeping.
"""

from __future__ import annotations

import numpy as np


def fault_patterns(calls) -> tuple[int, int, int]:
    """(shots, shots with a gate fault, distinct fault patterns summed over calls).

    Replays the gate-fault draws of ``simulate_noisy`` from the PCG64
    contract in the ``mzsim.noise`` docstring: trajectory i draws from a
    stream seeded with (seed, i); in gate order, a gate with error rate
    r > 0 faults when the next uniform is below r, and a fault then draws
    one Pauli index in [0, 3) per qubit the gate touches.  Rates are keyed
    by arity: single_qubit_error, cnot_error, and 1 - (1 - cnot_error)**6
    for a three-qubit gate.
    """
    shots = faulty = patterns = 0
    for circuit, device, n_shots, seed in calls:
        p2 = device.cnot_error
        rate_of = {1: device.single_qubit_error, 2: p2, 3: 1.0 - (1.0 - p2) ** 6}
        gates = [inst for inst in circuit.instructions if inst.kind == "gate"]
        rates = [(pos, rate_of.get(len(inst.qubits), 0.0), len(inst.qubits))
                 for pos, inst in enumerate(gates)]
        rates = [r for r in rates if r[1] > 0.0]
        seen = set()
        for i in range(n_shots):
            traj = np.random.default_rng((seed, i))
            flips = []
            for pos, rate, arity in rates:
                if traj.random() < rate:
                    flips.append((pos, tuple(int(traj.integers(3)) for _ in range(arity))))
            if flips:
                faulty += 1
                seen.add(tuple(flips))
        shots += n_shots
        patterns += len(seen)
    return shots, faulty, patterns


def fallback_count(calls) -> tuple[int, int]:
    """(mitigate inputs, inputs whose plain solve M^-1 p has an entry below -1e-10).

    Those inputs leave the direct solve for the constrained fallback.
    """
    fallback = 0
    for counts, confusion in calls:
        mapping = getattr(counts, "counts", counts)
        p = np.zeros(2 ** confusion.num_qubits)
        for key, weight in mapping.items():
            p[int(key, 2)] += float(weight)
        x = np.linalg.solve(confusion.matrix, p / p.sum())
        fallback += bool(x.min() < -1e-10)
    return len(calls), fallback
