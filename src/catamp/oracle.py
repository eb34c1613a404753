"""Brute-force truncated Fock-space reference implementation.

Everything the closed forms predict is recomputed here directly from a
two-mode density matrix in the number basis: one propagator, the action of
the exponential of the master-equation generator (lossless or damped), and
observables read straight off the matrix. Each observable reads rho as a
(d1, d2, d1, d2) tensor contracted with one d_j x d_j operator per mode, so
the only objects on the joint space are rho and the generator's diagonals:
no ladder operator on the joint space is built.
This module deliberately shares no code with the closed-form path; the Wigner
function uses the displaced-parity kernel, whose matrix elements come from
the three-term Laguerre recurrence.

The oracle needs numpy and the standard library only: the generator is held
as its at most nine nonzero diagonals and propagated by a truncated Taylor
series, so running it loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# Al-Mohy and Higham's truncated Taylor series: at most 55 terms per step, for
# which a step of 1-norm theta_55 = 9.9 keeps the backward error below 2^-53
_TAYLOR_TERMS = 55
_THETA_55 = 9.9
_UNIT_ROUNDOFF = 2.0 ** -53
# rows per block of a product (256 kB of complex results); on a 2-core Xeon,
# blocks cut a 28 x 28 lossless product from 15.4 ms to 8.9 ms
_ROW_BLOCK = 1 << 14


@dataclass
class FockState:
    """Two-mode density matrix in the number basis, row index n1*dim2 + n2."""

    dim1: int
    dim2: int
    rho: np.ndarray

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def purity(self) -> float:
        """Tr rho^2 as the sum of rho * rho.T, exact for any matrix."""
        return float(np.real(np.sum(self.rho * self.rho.T)))

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
    log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * log_fact
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


def _generator(params: AmplifierParams, d1: int, d2: int) -> list[tuple[int, np.ndarray]]:
    """The diagonals (offset, coefficients) of the master-equation generator.

    L acts on row-major vec(rho) of the d = d1*d2 joint levels; as in np.diag,
    the diagonal of offset o holds L[p, p + o], so it has d*d - |o| entries.
    With the rates folded into the jump operators c (sqrt(gamma (nbar+1)) a
    and sqrt(gamma nbar) a+ per mode, rate-0 jumps left out) and
    vec(A rho B) = kron(A, B.T) vec(rho),
    L = kron(-iH, 1) + kron(1, iH.T) + sum kron(c, conj(c)) - (G (+) G)/2,
    where H = -g (k + k+), k = e^{-i phi} a1 a2, and G = sum c+ c is diagonal
    (a a+ is n + 1 below the top level and 0 at it). Every operator here has
    one offset, so at most nine diagonals can be nonzero; they come offset 0
    first (zero when lossless), then the pump (zero when g = 0) on
    the ket at +-(d2+1) d, on the bra at +-(d2+1), the mode-1 jumps at
    +-(d2 d + d2) and the mode-2 jumps at +-(d + 1).
    """
    d = d1 * d2
    m1, m2 = np.divmod(np.arange(d), d2)
    # rows of a and a+ on the joint space: <m|a|m+1> (0 at the top) and <m|a+|m-1>
    down1, down2 = np.sqrt(m1 + 1.0) * (m1 < d1 - 1), np.sqrt(m2 + 1.0) * (m2 < d2 - 1)
    up1, up2 = np.sqrt(m1), np.sqrt(m2)
    phase = np.exp(-1j * params.pump_phase)
    k_row, kd_row = phase * down1 * down2, np.conj(phase) * up1 * up2  # k at d2+1, k+ at -(d2+1)
    ones = np.ones(d)
    g = params.g
    # each term kron(A, B) of one-offset A and B has offset o_A d + o_B and
    # row coefficients outer(row_A, row_B), zero wherever a column leaves the space
    terms = [((d2 + 1) * d, np.outer(1j * g * k_row, ones)),
             (-(d2 + 1) * d, np.outer(1j * g * kd_row, ones)),
             (d2 + 1, np.outer(ones, -1j * g * np.conj(k_row))),
             (-(d2 + 1), np.outer(ones, -1j * g * np.conj(kd_row)))]
    decay = np.zeros(d)
    for shift, down, up, gamma, nbar in ((d2, down1, up1, params.gamma1, params.nbar1),
                                         (1, down2, up2, params.gamma2, params.nbar2)):
        for rate, offset, row, number in ((gamma * (nbar + 1.0), shift, down, up * up),
                                          (gamma * nbar, -shift, up, down * down)):
            if rate > 0.0:
                terms.append((offset * (d + 1), rate * np.outer(row, row)))
                decay += rate * number
    size = d * d
    diagonals = [(0, -0.5 * (decay[:, None] + decay[None, :]).ravel())]
    for offset, rows in terms:
        rows = rows.ravel()
        diagonals.append((offset, rows[:size - offset] if offset > 0 else rows[-offset:]))
    return diagonals


def _shifted_norm(diagonals: list[tuple[int, np.ndarray]], mu: float) -> float:
    """Exact 1-norm of L - mu I, the largest column sum of |entries|."""
    (_, diag), *rest = diagonals
    columns = np.abs(diag - mu)
    for offset, coef in rest:
        # column q holds coef[q - offset] for offset > 0 and coef[q] below
        if offset > 0:
            columns[offset:] += np.abs(coef)
        else:
            columns[:coef.size] += np.abs(coef)
    return float(columns.max())


def _apply(diagonals: list[tuple[int, np.ndarray]], v: np.ndarray) -> np.ndarray:
    """The product of the diagonal-stored matrix with v, into a new array.

    The rows go in blocks, so that a block of the result and its temporaries
    stay in cache across the diagonals; every entry still sums its diagonals
    in list order, so the block size does not change a bit.
    """
    n = v.size
    out = np.zeros_like(v)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        for offset, coef in diagonals:
            # rows p with 0 <= p + offset < n, which hold coef[p + min(offset, 0)]
            lo, hi = max(start, -offset), min(stop, n - offset)
            if lo < hi:
                first = lo + min(offset, 0)
                out[lo:hi] += coef[first:first + hi - lo] * v[lo + offset:hi + offset]
    return out


def _max_part(v: np.ndarray) -> float:
    """The largest |real| or |imaginary| part of v, at least max|v| / sqrt(2)."""
    parts = v.view(float)
    return max(float(parts.max()), -float(parts.min()))


def evolve(state: FockState, params: AmplifierParams, t: float) -> FockState:
    """Propagate the state to time t (scaled units).

    One path for every amplifier: vec(rho(t)) = exp(t L) vec(rho) for the
    generator L of the master equation with thermal dissipators (the
    two-mode-squeeze commutator alone when lossless), stored as its nonzero
    diagonals. The action of the exponential is Al-Mohy and Higham's
    truncated Taylor algorithm (SIAM J. Sci. Comput. 33, 488-511, 2011) with
    the shift mu, the mean of L's diagonal: s = max(1, ceil(t ||L - mu I||_1
    / theta_55)) steps of h = t/s, the 1-norm taken exactly from the
    diagonals. Each step sums at most 55 Taylor terms of exp(h (L - mu I)),
    stopping once two successive terms fall below 2^-53 of the partial sum
    in the max norm (scipy's expm_multiply test, never looser here), and
    multiplies by e^{h mu}. The result is exact to rounding, needs no step
    size and draws no random numbers.
    """
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    d1, d2 = state.dim1, state.dim2
    diagonals = _generator(params, d1, d2)
    mu = float(np.mean(diagonals[0][1]))
    steps = max(1, math.ceil(t * _shifted_norm(diagonals, mu) / _THETA_55))
    h = t / steps
    diagonals[0] = (0, diagonals[0][1] - mu)
    # a zero diagonal (offset 0 when lossless, the pump when g = 0) adds nothing
    scaled = [(o, h * c) for o, c in diagonals if c.any()]
    del diagonals  # the loop holds one copy of the coefficients
    growth = math.exp(h * mu)
    vec = state.rho.astype(complex).reshape(-1)
    for _ in range(steps):
        term, last = vec, _max_part(vec)
        for k in range(1, _TAYLOR_TERMS + 1):
            term = _apply(scaled, term)
            term *= 1.0 / k
            size = _max_part(term)
            vec += term
            # scipy stops at |b_k-1| + |b_k| <= 2^-53 |F| in the max norm; with
            # the parts in place of the moduli, the sqrt(2) keeps this no looser
            if math.sqrt(2.0) * (last + size) <= _UNIT_ROUNDOFF * _max_part(vec):
                break
            last = size
        vec *= growth
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
    total = np.add.outer(np.arange(state.dim1), np.arange(state.dim2)).ravel()
    return np.bincount(total, weights=np.real(np.diag(state.rho)))


def _expect(state: FockState, op1: np.ndarray, op2: np.ndarray) -> complex:
    """Tr[rho (op1 (x) op2)], with rho read as a (d1, d2, d1, d2) tensor."""
    r4 = state.rho.reshape(state.dim1, state.dim2, state.dim1, state.dim2)
    return complex(np.einsum("ijkl,ki,lj->", r4, op1, op2))


def _normal_power(dim: int, m: int, n: int) -> np.ndarray:
    """a+^m a^n on one mode of dim levels."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return np.linalg.matrix_power(a.T, m) @ np.linalg.matrix_power(a, n)


def fock_moment(state: FockState, m1: int, n1: int, m2: int, n2: int) -> complex:
    """Normally ordered moment <a1+^m1 a1^n1 a2+^m2 a2^n2>."""
    return _expect(state, _normal_power(state.dim1, m1, n1), _normal_power(state.dim2, m2, n2))


def quadrature_variances(state: FockState) -> dict[str, float]:
    """Variances of X_j, Y_j (quadratures (a+a+)/2) and the compound X, Y.

    Each is Tr[rho q^2] - Tr[rho q]^2; the compound quadrature of a1 + a2 is
    q1 (x) 1 + 1 (x) q2, whose square is q1^2 (x) 1 + 2 q1 (x) q2 + 1 (x) q2^2.
    """
    a1, a2 = _normal_power(state.dim1, 0, 1), _normal_power(state.dim2, 0, 1)
    one1, one2 = np.eye(state.dim1), np.eye(state.dim2)
    parts = {}
    for name, scale, sign in (("x", 0.5, 1.0), ("y", -0.5j, -1.0)):
        q1, q2 = scale * (a1 + sign * a1.T), scale * (a2 + sign * a2.T)
        mean1, mean2 = _expect(state, q1, one2).real, _expect(state, one1, q2).real
        sq1, sq2 = _expect(state, q1 @ q1, one2).real, _expect(state, one1, q2 @ q2).real
        cross = _expect(state, q1, q2).real
        parts[name] = (sq1 - mean1**2, sq2 - mean2**2,
                       sq1 + 2.0 * cross + sq2 - (mean1 + mean2) ** 2)
    return {f"{name}{label}": parts[name][i] for i, label in enumerate("12c") for name in "xy"}


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


def _displacement_diagonals(w: np.ndarray, dim: int):
    """Yield, for k = 0 .. dim-1, the elements <n+k|D(w)|n>, n < dim - k.

    Each is sqrt(n!/(n+k)!) w^k e^{-|w|^2/2} L_n^(k)(|w|^2)
    = l_k sqrt(C(n+k, n)) P_n with l_k = e^{-x/2} w^k / sqrt(k!), x = |w|^2,
    built up in k, and P_n = L_n^(k)(x) / C(n+k, n). P_n comes from the
    three-term recurrence of the generalized Laguerre polynomials in n,
    written in differences (P_n = P_(n-1) + D_n, D_1 = -x/(k+1),
    D_n = (-x P_(n-1) + (n-1) D_(n-1)) / (n+k)), which keeps it accurate as
    x -> 0, where the plain recurrence loses about n^2 rounding errors.
    """
    x = np.abs(w) ** 2
    first = np.exp(-0.5 * x).astype(complex)
    for k in range(dim):
        if k:
            first = first * (w / math.sqrt(k))
        elems = np.empty((dim - k,) + w.shape, dtype=complex)
        elems[0] = first
        poly, step, scale = 1.0, 0.0, 1.0
        for n in range(1, dim - k):
            step = (-x * poly + (n - 1) * step) / (n + k)
            poly = poly + step
            scale *= math.sqrt((n + k) / n)
            elems[n] = (scale * poly) * first
        yield elems


def wigner(state: FockState, z, mode: int = 1) -> np.ndarray:
    """Wigner function of one mode via the displaced-parity kernel.

    Uses Pi_z = D(2z) * parity, whose Fock matrix elements are exact at the
    state's own truncation (no enlarged space needed).
    """
    rho1 = state.reduced(mode)
    d = rho1.shape[0]
    w = 2.0 * np.asarray(z, dtype=complex)
    acc = np.zeros(w.shape, dtype=complex)
    # Tr[rho Pi_z] = sum_{m,n} rho[m,n] (-1)^m <n|D(2z)|m>; with
    # <n|D(w)|n+k> = (-1)^k conj(<n+k|D(w)|n>), diagonal k of rho and
    # diagonal -k give the same real part against <n+k|D(w)|n>
    for k, elems in enumerate(_displacement_diagonals(w, d)):
        coef = np.diagonal(rho1, k).copy()
        if k:
            coef += np.conj(np.diagonal(rho1, -k))
        coef[1::2] *= -1.0
        acc += np.tensordot(coef, elems, axes=1)
    vals = (2.0 / math.pi) * acc
    return np.real(vals) if vals.ndim else float(np.real(vals))


def _exp_creation(z: complex, dim: int) -> np.ndarray:
    """Matrix of e^{z a+} in the number basis (lower triangular; a+^dim = 0)."""
    return sum(z**k / math.factorial(k) * _normal_power(dim, k, 0) for k in range(dim))


def char_fn(state: FockState, zeta1: complex, zeta2: complex) -> complex:
    """Normally ordered characteristic function Tr[rho e^{z a+} e^{-z* a} ...]."""
    p1 = _exp_creation(zeta1, state.dim1) @ _exp_creation(-zeta1, state.dim1).conj().T
    p2 = _exp_creation(zeta2, state.dim2) @ _exp_creation(-zeta2, state.dim2).conj().T
    return _expect(state, p1, p2)


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
