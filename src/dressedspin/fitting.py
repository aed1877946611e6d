"""Small numerical utilities: damped Gauss-Newton least squares, bracketed
root finding, and the seeded noise generator used for synthetic data.

The fits in this package are low-dimensional and smooth, so a damped
Gauss-Newton iteration (Levenberg-Marquardt style damping schedule) is
plenty: solve (J^T J + lambda diag(J^T J)) delta = -J^T r, grow lambda on
rejected steps, shrink it on accepted ones, stop when the relative step
drops below step_tol or after max_iter iterations.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import FitDiverged

__all__ = ["FitResult", "least_squares", "bisect_root", "Lcg64"]


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def least_squares(
    residuals,
    x0,
    jacobian,
    *,
    max_iter: int = 200,
    step_tol: float = 1e-10,
) -> FitResult:
    """Minimise 0.5*||residuals(x)||^2 by damped Gauss-Newton.

    jacobian(x) returns the m-by-n residual Jacobian.  Convergence: relative
    step below step_tol (or the cost already exactly zero); running out of
    iterations or failing to find a descent step returns converged=False.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residuals(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitDiverged("residuals not finite at the initial guess")
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = np.asarray(jacobian(x))
        grad = jac.T @ r
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0

        accepted = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + delta
            r_new = np.asarray(residuals(x_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            if np.all(np.isfinite(r_new)) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        step = float(np.linalg.norm(delta)) / (float(np.linalg.norm(x)) + 1e-300)
        x, r, cost = x_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-14)
        if step < step_tol or cost == 0.0:
            converged = True
            break

    jac = np.asarray(jacobian(x))
    jtj = jac.T @ jac
    dof = max(r.size - x.size, 1)
    sigma2 = 2.0 * cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = sigma2 * np.linalg.pinv(jtj)
    return FitResult(
        params=x,
        covariance=cov,
        residual_norm=math.sqrt(2.0 * cost),
        iterations=it,
        converged=converged,
    )


def bisect_root(f, a: float, b: float, *, xtol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of f in [a, b] by bisection; requires a sign change over the bracket."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"no sign change over [{a:g}, {b:g}]")
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0 or (b - a) < xtol:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


_MASK64 = (1 << 64) - 1


class Lcg64:
    """Seeded 64-bit linear congruential generator (documented in the README).

    state_{k+1} = (6364136223846793005 * state_k + 1442695040888963407) mod 2^64
    uniform():  top 53 bits of the advanced state, divided by 2^53 -> [0, 1)
    normal():   Box-Muller transform of two uniform draws

    Deliberately tiny and fully specified so that seeded synthetic-noise
    tolerances are reproducible everywhere, independent of numpy's RNG.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK64
        self._spare = None

    def uniform(self) -> float:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & _MASK64
        return (self.state >> 11) / float(1 << 53)

    def normal(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)
