"""Synthetic dissociation-style scan families with a known ground curve.

Each scan point is a transverse-field Hamiltonian whose exact ground
energy is known in closed form:

    1 qubit:  H(R) = c0(R) I  + GX X  + GZ Z            ->  E0 = c0 - g
    2 qubits: H(R) = c0(R) II + GX XI + GZ ZI + SPLIT IZ ->  E0 = c0 - g - SPLIT

with fixed fields: the transverse GX = 0.6, GZ = 0.8 and SPLIT = 0.5,
so g = sqrt(GX^2 + GZ^2) = 1. Choosing c0 to follow a parabola (plus an
optional cubic perturbation, which leaves the minimum location at
r_star) yields an energy curve with a known minimum, while the
transverse GX term guarantees genuinely fluctuating measurement
outcomes at the ground state, so shot-mode scans produce honest
nonzero variances for the curve fit.
"""

from __future__ import annotations

import math

from .formats import ScanPoint
from .pauli import PauliHamiltonian

# GX must be nonzero, so that ground-state outcomes fluctuate.
GX, GZ, SPLIT = 0.6, 0.8, 0.5


def parabola_scan(
    r_values,
    r_star: float,
    curvature: float,
    offset: float,
    cubic: float = 0.0,
    n_qubits: int = 2,
) -> list[ScanPoint]:
    """Build scan points whose ground-energy curve has its minimum at r_star."""
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    if n_qubits not in (1, 2):
        raise ValueError("synthetic scan families exist for 1 or 2 qubits")
    gap = math.sqrt(GX * GX + GZ * GZ)
    points = []
    for r in r_values:
        target = ground_curve_value(r, r_star, curvature, offset, cubic)
        if n_qubits == 1:
            c0 = target + gap
            terms = [(c0, "I"), (GX, "X"), (GZ, "Z")]
        else:
            c0 = target + gap + SPLIT
            terms = [(c0, "II"), (GX, "XI"), (GZ, "ZI"), (SPLIT, "IZ")]
        points.append(ScanPoint(float(r), PauliHamiltonian(n_qubits, terms)))
    return points


def ground_curve_value(
    r: float, r_star: float, curvature: float, offset: float, cubic: float = 0.0
) -> float:
    """The exact ground energy of parabola_scan at separation r."""
    delta = r - r_star
    return curvature * delta * delta + cubic * delta**3 + offset
