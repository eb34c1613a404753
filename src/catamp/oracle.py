"""Brute-force truncated Fock-space reference implementation.

Everything the closed forms predict is recomputed here directly from a
two-mode density matrix in the number basis: one propagator, the action of
the exponential of the sparse master-equation Liouvillian (lossless or
damped), and observables read straight off the matrix.
This module deliberately shares no code with the closed-form path; the Wigner
function uses the displaced-parity kernel built on scipy's Laguerre
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import eval_genlaguerre, gammaln

from .params import AmplifierParams, CatSpec, normalization


class DimTooSmall(ValueError):
    """Truncated cat state loses more norm than tolerated."""


class StepSizeError(RuntimeError):
    """Trace drifted beyond tolerance during evolution.

    The truncated Lindblad generator conserves trace exactly, so a drift
    flags a numerical fault in the propagator, not a truncation or step size.
    """


_NORM_DEFICIT_TOL = 1e-10
_TRACE_DRIFT_TOL = 1e-8


@dataclass
class FockState:
    """Two-mode density matrix in the number basis, row index n1*dim2 + n2."""

    dim1: int
    dim2: int
    rho: np.ndarray

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def reduced(self, mode: int) -> np.ndarray:
        """Single-mode reduced density matrix."""
        r4 = self.rho.reshape(self.dim1, self.dim2, self.dim1, self.dim2)
        if mode == 1:
            return np.trace(r4, axis1=1, axis2=3)
        if mode == 2:
            return np.trace(r4, axis1=0, axis2=2)
        raise ValueError("mode must be 1 or 2")


def _coherent_vec(alpha: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    if alpha == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def _cat_vec(cat: CatSpec, dim: int) -> np.ndarray:
    alpha = cat.amplitude
    v = _coherent_vec(alpha, dim) + np.exp(1j * cat.rel_phase) * _coherent_vec(-alpha, dim)
    return math.sqrt(normalization(cat)) * v


def build_initial(cat1: CatSpec, cat2: CatSpec, dim1: int, dim2: int) -> FockState:
    """Normalized cat (x) cat pure state as a density matrix."""
    v1 = _cat_vec(cat1, dim1)
    v2 = _cat_vec(cat2, dim2)
    for v, cat in ((v1, cat1), (v2, cat2)):
        deficit = abs(1.0 - float(np.vdot(v, v).real))
        if deficit > _NORM_DEFICIT_TOL:
            raise DimTooSmall(
                f"truncated norm deficit {deficit:.3e} for |alpha|={cat.amp_mag}"
            )
    vec = np.kron(v1, v2)
    return FockState(dim1, dim2, np.outer(vec, vec.conj()))


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def mode_ops(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation operators of both modes on the joint space."""
    a1 = np.kron(_destroy(state.dim1), np.eye(state.dim2))
    a2 = np.kron(np.eye(state.dim1), _destroy(state.dim2))
    return a1, a2


def _liouvillian(params: AmplifierParams, d1: int, d2: int) -> sp.csr_matrix:
    """Sparse generator of the master equation acting on row-major vec(rho).

    With the rates folded into the jump operators c (sqrt(gamma (nbar+1)) a
    and sqrt(gamma nbar) a+ per mode, rate-0 jumps left out) and
    H_eff = H - (i/2) sum c+ c, vec(A rho B) = kron(A, B.T) vec(rho) gives
    L = kronsum(i conj(H_eff), -i H_eff) + sum kron(c, conj(c)).
    """
    a1 = sp.kron(sp.csr_matrix(_destroy(d1)), sp.identity(d2), format="csr")
    a2 = sp.kron(sp.identity(d1), sp.csr_matrix(_destroy(d2)), format="csr")
    k = np.exp(-1j * params.pump_phase) * (a1 @ a2)
    jumps = [math.sqrt(rate) * c
             for a, gamma, nbar in ((a1, params.gamma1, params.nbar1),
                                    (a2, params.gamma2, params.nbar2))
             for rate, c in ((gamma * (nbar + 1.0), a), (gamma * nbar, a.T))
             if rate > 0.0]
    h_eff = -params.g * (k + k.conj().T) - 0.5j * sum(c.conj().T @ c for c in jumps)
    liou = sp.kronsum(1j * h_eff.conj(), -1j * h_eff, format="csr")
    for c in jumps:
        liou += sp.kron(c, c.conj(), format="csr")
    return liou


def evolve(state: FockState, params: AmplifierParams, t: float) -> FockState:
    """Propagate the state to time t (scaled units).

    One path for every amplifier: vec(rho(t)) = exp(t L) vec(rho) for the
    sparse Liouvillian L of the master equation with thermal dissipators
    (the two-mode-squeeze commutator alone when lossless), computed by
    scipy's expm_multiply (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    488-511, 2011), given the fresh CSR matrix L scaled by t in place (no
    scaled copy), so that it takes the exact sparse 1-norm of tL.  The
    result is exact to rounding and needs no step size.
    """
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    # imported here so that `import catamp` does not load scipy.linalg
    from scipy.sparse.linalg import expm_multiply

    d1, d2 = state.dim1, state.dim2
    liou = _liouvillian(params, d1, d2)
    liou.data *= t
    vec = expm_multiply(liou, state.rho.reshape(-1), traceA=liou.diagonal().sum())
    rho = vec.reshape(d1 * d2, d1 * d2)
    drift = abs(state.trace() - float(np.real(np.trace(rho))))
    if not drift <= _TRACE_DRIFT_TOL:
        raise StepSizeError(
            f"trace drift {drift:.3e} from the input; the propagator lost accuracy"
        )
    return FockState(d1, d2, rho)


# --- observables -------------------------------------------------------------


def pnd_single(state: FockState, mode: int) -> np.ndarray:
    """Marginal photon-number distribution of one mode."""
    return np.real(np.diag(state.reduced(mode))).copy()


def pnd_sum(state: FockState) -> np.ndarray:
    """Distribution of n1 + n2, length dim1 + dim2 - 1."""
    diag = np.real(np.diag(state.rho)).reshape(state.dim1, state.dim2)
    out = np.zeros(state.dim1 + state.dim2 - 1)
    for n1 in range(state.dim1):
        out[n1 : n1 + state.dim2] += diag[n1]
    return out


def fock_moment(state: FockState, m1: int, n1: int, m2: int, n2: int) -> complex:
    """Normally ordered moment <a1+^m1 a1^n1 a2+^m2 a2^n2>."""
    a1, a2 = mode_ops(state)
    op = (
        np.linalg.matrix_power(a1.conj().T, m1)
        @ np.linalg.matrix_power(a1, n1)
        @ np.linalg.matrix_power(a2.conj().T, m2)
        @ np.linalg.matrix_power(a2, n2)
    )
    return complex(np.trace(state.rho @ op))


def quadrature_variances(state: FockState) -> dict[str, float]:
    """Variances of X_j, Y_j (quadratures (a+a+)/2) and the compound X, Y."""
    a1, a2 = mode_ops(state)
    out = {}
    for label, op in (("1", a1), ("2", a2), ("c", a1 + a2)):
        x = 0.5 * (op + op.conj().T)
        y = -0.5j * (op - op.conj().T)
        for qlabel, q in ((f"x{label}", x), (f"y{label}", y)):
            rq = state.rho @ q
            mean = np.real(np.trace(rq))
            sq = np.real(np.sum(rq * q.T))
            out[qlabel] = float(sq - mean**2)
    return out


def squeeze_factors(state: FockState) -> dict[str, float]:
    """Squeezing factors in the package normalization (vacuum -> 0)."""
    v = quadrature_variances(state)
    return {
        "S1": v["x1"] - 0.25,
        "Q1": v["y1"] - 0.25,
        "S2": v["x2"] - 0.25,
        "Q2": v["y2"] - 0.25,
        "S": 0.5 * v["xc"] - 0.25,
        "Q": 0.5 * v["yc"] - 0.25,
    }


def _displacement_elements(w: np.ndarray, m: int, n: int) -> np.ndarray:
    """<m|D(w)|n> for an array of arguments w."""
    aw2 = np.abs(w) ** 2
    if m >= n:
        pref = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
        return pref * w ** (m - n) * np.exp(-0.5 * aw2) * eval_genlaguerre(n, m - n, aw2)
    pref = math.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)))
    return pref * (-np.conj(w)) ** (n - m) * np.exp(-0.5 * aw2) * eval_genlaguerre(m, n - m, aw2)


def wigner(state: FockState, z, mode: int = 1) -> np.ndarray:
    """Wigner function of one mode via the displaced-parity kernel.

    Uses Pi_z = D(2z) * parity, whose Fock matrix elements are exact at the
    state's own truncation (no enlarged space needed).
    """
    rho1 = state.reduced(mode)
    d = rho1.shape[0]
    z = np.asarray(z, dtype=complex)
    w = 2.0 * z
    acc = np.zeros(z.shape, dtype=complex) if z.ndim else np.zeros((), dtype=complex)
    for m in range(d):
        for n in range(d):
            if abs(rho1[m, n]) < 1e-300:
                continue
            # Tr[rho Pi_z] = sum_{m,n} rho[m,n] (-1)^m <n|D(2z)|m>
            acc = acc + rho1[m, n] * ((-1) ** m) * _displacement_elements(w, n, m)
    vals = (2.0 / math.pi) * acc
    return np.real(vals) if vals.ndim else float(np.real(vals))


def _exp_creation(z: complex, dim: int) -> np.ndarray:
    """Matrix of e^{z a+} in the number basis (lower triangular)."""
    out = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(m + 1):
            out[m, n] = np.exp(
                0.5 * (gammaln(m + 1) - gammaln(n + 1)) - gammaln(m - n + 1)
            ) * z ** (m - n)
    return out


def char_fn(state: FockState, zeta1: complex, zeta2: complex) -> complex:
    """Normally ordered characteristic function Tr[rho e^{z a+} e^{-z* a} ...]."""
    p1 = _exp_creation(zeta1, state.dim1) @ _exp_creation(-zeta1, state.dim1).conj().T
    p2 = _exp_creation(zeta2, state.dim2) @ _exp_creation(-zeta2, state.dim2).conj().T
    return complex(np.trace(state.rho @ np.kron(p1, p2)))


def factorial_moment(state: FockState, k: int, scope: str = "compound", mode: int = 1) -> float:
    """<W^k> as the falling-factorial average of the photon-number distribution."""
    if scope == "compound":
        p = pnd_sum(state)
    elif scope == "single":
        p = pnd_single(state, mode)
    else:
        raise ValueError("scope must be 'compound' or 'single'")
    n = np.arange(len(p), dtype=float)
    ff = np.ones_like(n)
    for j in range(k):
        ff *= np.clip(n - j, 0.0, None)
    return float(np.dot(p, ff))

