"""Answer checks that share no code with the program under test.

Each check works from the raw vertex matrix ``Z`` (one row per vertex), a
candidate projection ``rho`` and what the instance generator built.  All
tolerances are relative to the instance scale ``s = max_i ||z_i||``, so the
same check applies unchanged to an instance multiplied by any power of two.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

VI_TOL = 1e-9  # times s^2: min_i <z_i - rho, rho> is quadratic in the scale
HULL_TOL = 1e-8  # times s
ZERO_TOL = 1e-7  # times s
SCALE_TOL = 1e-8  # times s


def scale_of(Z) -> float:
    s = float(np.linalg.norm(Z, axis=1).max())
    return s if s > 0.0 else 1.0


def vi_residual(Z, rho) -> float:
    """``min_i <z_i - rho, rho>``: nonnegative exactly at the projection."""
    return float(((Z - rho) @ rho).min())


def hull_residual(Z, rho) -> float:
    """Distance-like residual of ``rho = Z^T a`` with ``a >= 0``, ``sum a = 1``.

    The sum-to-one row is weighted by the scale so both parts of the
    residual carry the units of ``rho``.
    """
    s = scale_of(Z)
    A = np.vstack([Z.T, np.full((1, Z.shape[0]), s)])
    b = np.concatenate([rho, [s]])
    _, rnorm = nnls(A, b, maxiter=50 * A.shape[1])
    return float(rnorm)


def check_answer(Z, rho, says_inside, built_inside, margin) -> list[str]:
    """Names of the checks ``rho`` fails; empty when it is the projection.

    ``says_inside`` is the program's origin-membership flag for this answer;
    ``built_inside`` and ``margin`` describe what the generator built: the
    origin inside the hull, or the hull inside ``{x : <d, x> >= margin}``
    for some unit ``d``, so that the distance is at least ``margin``.
    """
    Z = np.asarray(Z, dtype=float)
    rho = np.asarray(rho, dtype=float)
    s = scale_of(Z)
    failed = []
    if vi_residual(Z, rho) < -VI_TOL * s * s:
        failed.append("vi-residual")
    if hull_residual(Z, rho) > HULL_TOL * s:
        failed.append("in-hull")
    dist = float(np.linalg.norm(rho))
    if built_inside:
        membership_ok = says_inside and dist <= ZERO_TOL * s
    else:
        membership_ok = not says_inside and dist >= margin * (1.0 - 1e-9)
    if not membership_ok:
        failed.append("membership")
    return failed


def check_scaled(rho_scaled, rho_base, factor, Z_scaled) -> list[str]:
    """``rho(sP) = s * rho(P)``, to a tolerance relative to the scaled instance."""
    dev = float(np.linalg.norm(np.asarray(rho_scaled) - factor * np.asarray(rho_base)))
    return [] if dev <= SCALE_TOL * scale_of(Z_scaled) else ["scale-equivariance"]
