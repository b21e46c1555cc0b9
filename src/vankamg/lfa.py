"""Local Fourier analysis of relaxation and two-grid cycles.

On an infinite uniform grid every constant-coefficient operator is
diagonalised by the exponentials ``exp(i theta . x/h)``, so a stencil acts on
each frequency by its symbol.  Relaxation ``S = I - omega M A`` then has the
scalar symbol ``1 - omega M~(theta) A~(theta)``, and its smoothing factor is
the largest modulus over the high-frequency region

    T_high = [-pi/2, 3pi/2)^d  minus  [-pi/2, pi/2)^d.

Standard coarsening couples each low frequency ``theta`` with its harmonics
``theta + kappa*pi``, ``kappa in {0,1}^d``, giving a ``2^d x 2^d`` two-grid
error symbol per base frequency; the two-grid convergence factor is the
largest spectral radius of that block over the sampled low region (the
singular base ``theta = 0`` is skipped).  With ``S = diag(s)`` that block is
``E = S^nu2 (I - p (a*p)^T / a_H) S^nu1``.  Conjugating by ``diag(sqrt(a))``
and cycling the factors makes it similar to ``Pi Sigma Pi``, with
``Pi = I - w w^T``, ``w = sqrt(a)*p / |sqrt(a)*p|``, ``Sigma = diag(s^(nu1+nu2))``:
the spectrum is real, depends on ``nu1 + nu2`` only, and its extreme roots of
``sum_k w_k^2/(sigma_k - lambda) = 0`` lie in ``[sigma_(K-1), sigma_(K)]`` and
``[sigma_(1), sigma_(2)]`` by Cauchy interlacing.  ``two_grid_factor`` wants
only the largest modulus over all bases, so it bounds and prunes: the ends of
each bracket bound its root's modulus from both sides, a few brackets with
the largest bound from above are solved first, and a bracket is then dropped
only when the sign of the secular function at ``±best`` (it increases
between its poles) proves its root lies inside ``[-best, best]``.  The rest
are solved; the result is the one solving every bracket gives.  In 1D the
single bracket has a closed-form root.  The dense route of
``two_grid_symbol`` is the oracle.

For every supported smoother the product symbol ``M~ A~`` has a known exact
range ``[t_min, t_max]`` on the high-frequency set, and the damping that
equioscillates ``|1 - omega t|`` at the endpoints,

    omega* = 2/(t_min + t_max),   mu* = (t_max - t_min)/(t_min + t_max),

is optimal.  Those rational values are tabulated here next to the sampled
estimates so tests can compare the two routes independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .stencils import (PatchLayout, Stencil, closed_form_stencil, delta_stencil,
                       laplacian_stencil, mass_stencil, restriction_stencil)

__all__ = [
    "SmootherKind",
    "SmootherSpec",
    "FrequencyGrid",
    "OptimalDamping",
    "TwoGridSymbol",
    "EigenField",
    "symbol",
    "smoother_symbol",
    "smoothing_factor",
    "optimal_omega",
    "transfer_symbols",
    "two_grid_symbol",
    "two_grid_factor",
    "eigenfield",
    "spectral_radius",
]

DEFAULT_SAMPLES = 64

# cap on FrequencyGrid.nbytes_estimate: a larger grid is refused before
# anything is allocated (3D at 256 samples is the largest accepted)
MEMORY_BUDGET_BYTES = 2**30


class SmootherKind(str, Enum):
    JACOBI = "jacobi"
    VANKA_ELEMENT = "vanka-e"
    VANKA_VERTEX = "vanka-v"
    MASS_FE = "mass"
    MASS_3D = "mass3d"


# exact range of the product symbol M~ A~ over the high-frequency set,
# per (kind, dim); the equioscillation optimum follows from these
PRODUCT_RANGE = {
    (SmootherKind.JACOBI, 1): (Fraction(1), Fraction(2)),
    (SmootherKind.JACOBI, 2): (Fraction(1, 2), Fraction(2)),
    (SmootherKind.JACOBI, 3): (Fraction(1, 3), Fraction(2)),
    (SmootherKind.VANKA_ELEMENT, 1): (Fraction(4, 3), Fraction(3, 2)),
    (SmootherKind.VANKA_ELEMENT, 2): (Fraction(3, 4), Fraction(4, 3)),
    (SmootherKind.VANKA_VERTEX, 1): (Fraction(100, 81), Fraction(4, 3)),
    (SmootherKind.VANKA_VERTEX, 2): (Fraction(7, 10), Fraction(8, 5)),
    (SmootherKind.MASS_FE, 2): (Fraction(8, 9), Fraction(16, 9)),
    (SmootherKind.MASS_3D, 3): (Fraction(4, 9), Fraction(1372, 729)),
}

SUPPORTED_PAIRS = frozenset(PRODUCT_RANGE)


def _supported(kind, dim: int) -> SmootherKind:
    """``kind`` as a :class:`SmootherKind`; raises unless ``(kind, dim)`` is supported."""
    kind = SmootherKind(kind)
    if (kind, dim) not in SUPPORTED_PAIRS:
        raise ValueError(f"unsupported smoother/dimension pair ({kind.value}, {dim})")
    return kind


def exact_optimum(kind: SmootherKind, dim: int) -> tuple:
    """Closed-form ``(omega*, mu*)`` as exact rationals."""
    kind = _supported(kind, dim)
    t_min, t_max = PRODUCT_RANGE[(kind, dim)]
    return 2 / (t_min + t_max), (t_max - t_min) / (t_min + t_max)


@lru_cache(maxsize=256)
def smoother_m_stencil(kind: SmootherKind, dim: int, h=1) -> Stencil:
    """The approximate inverse ``M`` defining ``S = I - omega M A``.

    Memoised per argument tuple, like ``laplacian_stencil``: two-grid factors,
    omega scans and hierarchy levels share one exact stencil per ``h``.
    """
    kind = _supported(kind, dim)
    if kind is SmootherKind.JACOBI:
        return delta_stencil(dim).scaled(Fraction(h) ** 2 / (2 * dim))
    if kind is SmootherKind.VANKA_ELEMENT:
        return closed_form_stencil(PatchLayout("element", dim), h)
    if kind is SmootherKind.VANKA_VERTEX:
        return closed_form_stencil(PatchLayout("vertex", dim), h)
    # mass kinds: the scaled Q1 mass stencil of the matching dimension
    return mass_stencil(dim, h)


@dataclass(frozen=True)
class SmootherSpec:
    """A damped additive smoother: kind, dimension and damping factor."""

    kind: SmootherKind
    dim: int
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "kind", _supported(self.kind, self.dim))
        if not 0 < float(self.omega) <= 2:
            raise ValueError(f"damping must lie in (0, 2], got {self.omega}")

    def m_stencil(self, h=1) -> Stencil:
        return smoother_m_stencil(self.kind, self.dim, h)

    def a_stencil(self, h=1) -> Stencil:
        return laplacian_stencil(self.dim, h)


@dataclass(frozen=True)
class FrequencyGrid:
    """Equispaced sampling of ``[-pi/2, 3pi/2)^dim``.

    With ``samples_per_dim`` divisible by 4 the grid contains ``0``, ``pi/2``
    and ``pi`` exactly; the first half of the 1D samples covers the low
    region ``[-pi/2, pi/2)``.  Grids whose ``nbytes_estimate`` exceeds
    ``MEMORY_BUDGET_BYTES`` are refused at construction.
    """

    dim: int
    samples_per_dim: int = DEFAULT_SAMPLES

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.samples_per_dim < 4 or self.samples_per_dim % 2:
            raise ValueError("samples_per_dim must be even and at least 4")
        if self.nbytes_estimate > MEMORY_BUDGET_BYTES:
            raise ValueError(
                f"{self.samples_per_dim} samples in {self.dim}D need about "
                f"{self.nbytes_estimate / 2**30:.1f} GiB, over the "
                f"{MEMORY_BUDGET_BYTES / 2**30:.0f} GiB budget")

    @property
    def nbytes_estimate(self) -> int:
        """Bytes of one float64 ``(N, K, K)`` two-grid stack on this grid.

        ``(samples/2)**dim`` bases times ``K**2 = 4**dim`` entries; that stack
        (built by ``eigenfield``) is the unit of memory the analysis needs.
        """
        return 8 * self.samples_per_dim**self.dim * 2**self.dim

    @cached_property
    def theta_1d(self) -> np.ndarray:
        n = self.samples_per_dim
        return -np.pi / 2 + 2 * np.pi * np.arange(n) / n

    @cached_property
    def low_1d(self) -> np.ndarray:
        return self.theta_1d[: self.samples_per_dim // 2]

    def _cartesian(self, axis_values) -> np.ndarray:
        grids = np.meshgrid(*([axis_values] * self.dim), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def points(self) -> np.ndarray:
        """All samples, shape ``(samples_per_dim**dim, dim)``."""
        return self._cartesian(self.theta_1d)

    def high_points(self) -> np.ndarray:
        """Samples with at least one component outside ``[-pi/2, pi/2)``."""
        pts = self.points()
        half = self.samples_per_dim // 2
        idx = np.meshgrid(*([np.arange(self.samples_per_dim)] * self.dim), indexing="ij")
        high = np.zeros(pts.shape[0], dtype=bool)
        for component in idx:
            high |= component.reshape(-1) >= half
        return pts[high]

    @cached_property
    def off_origin(self) -> np.ndarray:
        """Mask over ``low_points(skip_origin=False)``, False only at ``theta = 0``."""
        zero = np.abs(self.low_1d) <= 1e-14
        at_origin = zero
        for _ in range(self.dim - 1):
            at_origin = np.logical_and.outer(at_origin, zero)
        return ~at_origin.reshape(-1)

    def low_points(self, skip_origin: bool = True) -> np.ndarray:
        """Samples of the low region; the singular origin is dropped by default."""
        pts = self._cartesian(self.low_1d)
        return pts[self.off_origin] if skip_origin else pts

    @cached_property
    def _held(self) -> dict:
        return {}

    def _hold(self, stencils: tuple, build) -> np.ndarray:
        """``build()`` made read-only and kept for the life of the grid.

        Keyed by the ``id`` of each stencil; the entry holds the stencils, so
        no ``id`` can be reused while cached.  A ``build`` that raises keeps
        nothing, so the next call raises again.
        """
        key = tuple(map(id, stencils))
        held = self._held.get(key)
        if held is None:
            values = build()
            values.flags.writeable = False
            held = self._held[key] = (stencils, values)
        return held[1]

    def _low_symbols(self, stencil: Stencil) -> np.ndarray:
        """``_harmonic_symbols(stencil, self)`` at the bases off the origin, read-only.

        Computed once per stencil object: the symbols do not depend on omega
        or the sweep counts, so a table or an omega scan on one grid
        evaluates each stencil once.
        """
        return self._hold((stencil,),
                          lambda: _harmonic_symbols(stencil, self)[:, self.off_origin])

    def _weights(self, a_stencil: Stencil, p_stencil: Stencil) -> np.ndarray:
        """``_secular_weights`` of the low symbols of ``a`` and ``p``, read-only.

        Computed once per stencil pair, like ``_low_symbols``; a singular
        coarse symbol raises on every call.
        """
        return self._hold((a_stencil, p_stencil), lambda: _secular_weights(
            self._low_symbols(a_stencil), self._low_symbols(p_stencil)))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def symbol(stencil: Stencil, theta) -> np.ndarray:
    """Evaluate ``sum_o s[o] exp(i o . theta)``.

    ``theta`` is a length-``dim`` sequence or an array of shape
    ``(..., dim)``; the result matches the leading shape.  The value is
    complex in general; for a symmetric stencil (detected once per stencil)
    the sine half cancels and is not computed, so the imaginary part is 0.
    """
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 1
    pts = theta.reshape(-1, stencil.dim)
    offsets, coefs = stencil._arrays
    phase = pts @ offsets.T
    # real cos and sin are vectorised; complex exp is several times slower
    values = (np.cos(phase) @ coefs).astype(complex)
    if not stencil.is_symmetric:
        values.imag = np.sin(phase) @ coefs
    if scalar:
        return values[0]
    return values.reshape(theta.shape[:-1])


def _harmonic_symbols(stencil: Stencil, grid: FrequencyGrid) -> np.ndarray:
    """Real symbol at every harmonic of every low base, shape ``(K, N)``.

    ``exp(i o . theta)`` factors over the axes, so on the Cartesian grid the
    symbol is the stencil's coefficient tensor contracted axis by axis with
    the 1D table ``exp(i o theta_k)``.  Per axis the harmonics ``kappa = 0, 1``
    of the ``samples/2`` low values are the two halves of ``theta_1d``.  Row
    ``k`` is harmonic ``kappas[k]``; columns follow ``low_points(False)``, so
    rows ``1:`` are exactly the high-frequency samples.
    """
    offsets, coefs = stencil._arrays
    low = offsets.min(axis=0)
    values = np.zeros(tuple(offsets.max(axis=0) - low + 1), dtype=complex)
    values[tuple((offsets - low).T)] = coefs
    for axis in range(grid.dim):
        reach = np.arange(low[axis], low[axis] + values.shape[0])
        table = np.exp(1j * np.multiply.outer(reach, grid.theta_1d))
        values = np.tensordot(values, table, axes=(0, 0))    # axis goes last
    half = grid.samples_per_dim // 2
    split = values.real.reshape((2, half) * grid.dim)
    order = [*range(0, 2 * grid.dim, 2), *range(1, 2 * grid.dim, 2)]
    return split.transpose(order).reshape(2**grid.dim, half**grid.dim)


def smoother_symbol(spec: SmootherSpec, theta) -> np.ndarray:
    """Symbol of ``S = I - omega M A``; real for the supported smoothers."""
    t = symbol(spec.m_stencil(), theta).real * symbol(spec.a_stencil(), theta).real
    return 1.0 - float(spec.omega) * t


def smoothing_factor(spec: SmootherSpec, grid: FrequencyGrid = None) -> float:
    """Largest ``|S~|`` over the sampled high-frequency region."""
    if grid is None:
        grid = FrequencyGrid(spec.dim)
    if grid.dim != spec.dim:
        raise ValueError(f"frequency grid dim {grid.dim} != smoother dim {spec.dim}")
    t = _product_symbol_high(spec.m_stencil(), spec.a_stencil(), grid)
    return float(np.abs(1.0 - float(spec.omega) * t).max())


def _product_symbol_high(m_stencil: Stencil, a_stencil: Stencil,
                         grid: FrequencyGrid) -> np.ndarray:
    """``M~ A~`` on the sampled high-frequency set (order as in the harmonics)."""
    return _harmonic_symbols(m_stencil, grid)[1:] * _harmonic_symbols(a_stencil, grid)[1:]


@dataclass(frozen=True)
class OptimalDamping:
    """Sampled and closed-form optimum of the smoothing factor over omega."""

    kind: SmootherKind
    dim: int
    omega: float
    mu: float
    t_min: float
    t_max: float
    omega_exact: Fraction
    mu_exact: Fraction


def optimal_omega(kind: SmootherKind, dim: int, grid: FrequencyGrid = None) -> OptimalDamping:
    """Equioscillating damping from the sampled product-symbol range.

    Computes ``t_min, t_max`` of ``M~ A~`` over the sampled high-frequency
    region and returns ``omega = 2/(t_min+t_max)`` together with the exact
    rational optimum for the pair, so the two routes can be cross-checked.
    """
    kind = _supported(kind, dim)
    if grid is None:
        grid = FrequencyGrid(dim)
    t = _product_symbol_high(smoother_m_stencil(kind, dim), laplacian_stencil(dim, 1), grid)
    t_min, t_max = float(t.min()), float(t.max())
    if t_min <= 0:
        raise ValueError("product symbol is not positive on the high-frequency set")
    omega = 2.0 / (t_min + t_max)
    mu = (t_max - t_min) / (t_min + t_max)
    omega_exact, mu_exact = exact_optimum(kind, dim)
    return OptimalDamping(kind, dim, omega, mu, t_min, t_max, omega_exact, mu_exact)


# ---------------------------------------------------------------------------
# two-grid analysis
# ---------------------------------------------------------------------------

def _kappas(dim: int) -> np.ndarray:
    return np.array(list(product((0, 1), repeat=dim)), dtype=np.int64)


def transfer_symbols(dim: int, theta) -> np.ndarray:
    """Per-harmonic prolongation symbol ``p`` at a low frequency.

    One entry per harmonic ``theta + kappa*pi`` in the order of
    ``kappa = (0,...,0), ..., (1,...,1)``.  ``p`` is the symbol of the full
    weighting ``restriction_stencil``: prolongation is its scaled transpose,
    so both transfers have the symbol ``p`` and the Galerkin coarse symbol is
    ``sum_k p[k] A~(theta_k) p[k]``.
    """
    theta = np.asarray(theta, dtype=float).reshape(dim)
    if np.any(theta < -np.pi / 2 - 1e-12) or np.any(theta >= np.pi / 2 - 1e-12):
        raise ValueError("transfer symbols are defined for theta in [-pi/2, pi/2)")
    harmonics = theta[None, :] + np.pi * _kappas(dim)
    return symbol(restriction_stencil(dim), harmonics).real


def _two_grid_stack(spec: SmootherSpec, bases: np.ndarray, nu1: int, nu2: int):
    """Two-grid error symbols for a batch of base frequencies.

    Returns ``(E, S, harmonics)`` where ``E`` has shape ``(N, K, K)`` with
    ``K = 2**dim`` and ``S`` holds the per-harmonic smoother symbols
    ``(K, N)``.  Raises if any sampled coarse symbol is singular.
    """
    if nu1 < 0 or nu2 < 0:
        raise ValueError("smoothing step counts must be nonnegative")
    dim = spec.dim
    kappas = _kappas(dim)
    harmonics = bases[None, :, :] + np.pi * kappas[:, None, :]   # (K, N, d)
    a, m, p = (symbol(st, harmonics).real                         # (K, N) each
               for st in (spec.a_stencil(), spec.m_stencil(), restriction_stencil(dim)))
    s = 1.0 - float(spec.omega) * m * a
    a_coarse = (p * p * a).sum(axis=0)                           # (N,)
    if np.any(np.abs(a_coarse) < 1e-13):
        raise ValueError("singular coarse symbol; theta = 0 must be excluded")
    k = len(kappas)
    cgc = np.eye(k)[None, :, :] \
        - (p.T[:, :, None] * p.T[:, None, :] * a.T[:, None, :]) / a_coarse[:, None, None]
    e = cgc * (s**nu1).T[:, None, :] * (s**nu2).T[:, :, None]
    return e, s, harmonics


@dataclass(frozen=True)
class TwoGridSymbol:
    """The ``2^dim x 2^dim`` error symbol at one base frequency."""

    theta: np.ndarray
    harmonics: np.ndarray
    matrix: np.ndarray

    @property
    def spectral_radius(self) -> float:
        return spectral_radius(self.matrix)


def two_grid_symbol(spec: SmootherSpec, theta, nu1: int, nu2: int) -> TwoGridSymbol:
    """Error symbol ``S^nu2 (I - P (A_H)^-1 R A) S^nu1`` at one frequency.

    Any base with a nonsingular Galerkin coarse symbol is accepted; bases
    that differ by a harmonic shift produce similarity-equivalent blocks.
    """
    theta = np.asarray(theta, dtype=float).reshape(1, spec.dim)
    e, _, harmonics = _two_grid_stack(spec, theta, nu1, nu2)
    return TwoGridSymbol(theta[0], harmonics[:, 0, :], e[0])


def two_grid_factor(spec: SmootherSpec, nu1: int, nu2: int,
                    grid: FrequencyGrid = None) -> float:
    """Largest spectral radius of the error symbol over the sampled low region.

    Uses the rank-one structure of the block (module docstring) instead of
    assembling it, and solves the secular equation only in brackets whose
    root can set the maximum (``_rank_one_radius``); ``max |eigvals|`` of
    ``_two_grid_stack`` is the oracle.  The symbols and the weights come from
    the grid's cache, so an omega scan on one grid builds them once.
    """
    if grid is None:
        grid = FrequencyGrid(spec.dim)
    if grid.dim != spec.dim:
        raise ValueError(f"frequency grid dim {grid.dim} != smoother dim {spec.dim}")
    if nu1 < 0 or nu2 < 0:
        raise ValueError("smoothing step counts must be nonnegative")
    a_stencil, p_stencil = spec.a_stencil(), restriction_stencil(spec.dim)
    return _rank_one_radius(float(spec.omega), nu1 + nu2, grid._low_symbols(a_stencil),
                            grid._low_symbols(spec.m_stencil()),
                            grid._weights(a_stencil, p_stencil))


def _secular_weights(a, p) -> np.ndarray:
    """``w2 = p^2 a / a_H`` per harmonic, shape ``(K, N)``; each column sums to 1.

    ``a_H = sum_k p_k^2 a_k`` is the Galerkin coarse symbol; raises where it
    is singular.  Depends on neither omega nor the sweep counts.
    """
    w2 = p * p
    w2 *= a
    a_coarse = w2.sum(axis=0)
    if np.any(np.abs(a_coarse) < 1e-13):
        raise ValueError("singular coarse symbol; theta = 0 must be excluded")
    w2 /= a_coarse
    return w2


# brackets solved first, those with the largest upper bound on their root
_FIRST_ROUND = 16


def _rank_one_radius(omega: float, nu: int, a, m, w2) -> float:
    """Largest ``rho(Pi Sigma Pi)`` over the columns of per-harmonic symbols.

    ``a``, ``m`` and the weights ``w2`` (``_secular_weights``) have shape
    ``(K, N)``.  The radius of a column is ``max(|lambda_min|, |lambda_max|)``,
    the larger modulus of the roots in its two end brackets.  In 1D (``K = 2``)
    there is one bracket and, as the weights sum to 1, its root is
    ``w2[0] sigma[1] + w2[1] sigma[0]``.  Otherwise the maximum is found by
    bound and prune, which gives the value of solving every bracket:

    * a bracket of constant sign bounds its root's modulus from below by its
      nearer end; the largest such bound starts ``best``;
    * the ``_FIRST_ROUND`` brackets with the largest bound from above,
      ``max(|lo|, |hi|)``, are solved and their roots raise ``best``;
    * a bracket is dropped when its root provably lies in ``[-best, best]``:
      its bound from above is at most ``best``, or on each side it reaches
      past, ``±best`` lies strictly inside and ``f`` has the sign that puts
      the root on the near side (``f`` increases between the poles, so
      ``f(best) >= 0`` means root ``<= best`` and ``f(-best) <= 0`` means root
      ``>= -best``).  A bracket with ``±best`` at an end is kept, as ``f`` has
      a pole there.  The rest are solved in one call.
    """
    # the same rounding as 1 - omega m a; a negative base makes ``**`` take a
    # far slower libm path, so the power is taken of |s|
    s = m * omega
    s *= a
    np.subtract(1.0, s, out=s)
    sigma = np.abs(s)
    sigma **= nu
    if nu % 2:
        np.copysign(sigma, s, out=sigma)
    del s                           # freed before the next (K, N) temporary
    k, n = sigma.shape
    if k == 2:
        return float(np.abs(w2[0] * sigma[1] + w2[1] * sigma[0]).max())
    ordered = np.sort(sigma, axis=0)
    lo = np.concatenate((ordered[0], ordered[k - 2]))
    hi = np.concatenate((ordered[1], ordered[k - 1]))
    del ordered
    sigma, w2 = sigma.T, w2.T         # (N, K) views; bracket b belongs to column b % n

    def roots(brackets):
        rows = brackets % n
        return np.abs(_secular_roots(sigma[rows], w2[rows], lo[brackets], hi[brackets]))

    upper = np.maximum(np.abs(lo), np.abs(hi))
    floor = np.where((lo > 0) | (hi < 0), np.minimum(np.abs(lo), np.abs(hi)), 0.0)
    best = float(floor.max())
    open_ = np.flatnonzero(upper > best)
    if open_.size > _FIRST_ROUND:
        first = np.argpartition(upper[open_], -_FIRST_ROUND)[-_FIRST_ROUND:]
        best = max(best, float(roots(open_[first]).max()))
        open_ = np.delete(open_, first)
        open_ = open_[upper[open_] > best]
    kept = np.zeros(open_.size, dtype=bool)
    for sign, end in ((1.0, hi), (-1.0, lo)):
        x = sign * best
        reach = sign * end[open_] > best
        inside = np.flatnonzero(reach & (lo[open_] < x) & (x < hi[open_]))
        rows = open_[inside] % n
        f = (w2[rows] / (sigma[rows] - x)).sum(axis=1)
        reach[inside] = sign * f < 0
        kept |= reach
    return max(best, float(roots(open_[kept]).max(initial=0.0)))


_SECULAR_STEPS = 100


def _secular_roots(sigma, w2, lo, hi) -> np.ndarray:
    """Root of ``f(lam) = sum_k w2[:, k] / (sigma[:, k] - lam)`` in each ``[lo, hi]``.

    No ``sigma`` lies inside a bracket and ``f`` increases between its poles.
    A side without weight leaves ``f`` of one sign on the bracket, and the
    root is the end on that side (a deflated eigenvalue).  Otherwise each
    step fits ``c + b1/(lo - lam) + b2/(hi - lam)`` to the value and slope of
    the terms on either side (Bunch, Nielsen and Sorensen 1978) and takes its
    root if that lies inside the bracket narrowed by the sign of ``f``, else
    bisects; a model root past an end pole is that pole to rounding.
    """
    left = sigma <= lo[:, None]
    w_left = np.where(left, w2, 0.0).sum(axis=1)
    w_right = np.where(left, 0.0, w2).sum(axis=1)
    lam = np.where(w_left == 0, lo, hi)
    active = np.flatnonzero((w_left > 0) & (w_right > 0))
    lam[active] = 0.5 * (lo[active] + hi[active])
    narrow_lo, narrow_hi = lo.copy(), hi.copy()
    tol = 4 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_STEPS):
            if active.size == 0:
                break
            x, pole_lo, pole_hi = lam[active], lo[active], hi[active]
            d = sigma[active] - x[:, None]
            terms = w2[active] / d
            f = terms.sum(axis=1)
            slopes = terms / d
            slope_lo = np.where(left[active], slopes, 0.0).sum(axis=1)
            slope_hi = slopes.sum(axis=1) - slope_lo
            below = f < 0
            l = np.where(below, x, narrow_lo[active])
            h = np.where(below, narrow_hi[active], x)
            # root of c + b1/(dl - s) + b2/(dh - s), i.e. of c s^2 - bq s + cq
            dl, dh = pole_lo - x, pole_hi - x
            b1, b2 = slope_lo * dl * dl, slope_hi * dh * dh
            c = f - slope_lo * dl - slope_hi * dh
            bq = c * (dl + dh) + b1 + b2
            cq = c * dl * dh + b1 * dh + b2 * dl
            q = 0.5 * (bq + np.copysign(np.sqrt(np.maximum(bq * bq - 4 * c * cq, 0.0)), bq))
            roots = (cq / q, q / c)       # one lies in (dl, dh), up to rounding
            past = [np.maximum(np.maximum(dl - r, r - dh), 0.0) for r in roots]
            s = np.where(past[0] <= past[1], *roots)
            step, eps = x + s, tol[active]
            take = ((step > l) & (step < h)) | (np.abs(s) <= eps)
            snap = ~take & (((np.abs(step - pole_lo) <= eps) & (l == pole_lo))
                            | ((np.abs(step - pole_hi) <= eps) & (h == pole_hi)))
            nxt = np.where(take, step,
                           np.where(snap, np.clip(step, pole_lo, pole_hi), 0.5 * (l + h)))
            lam[active], narrow_lo[active], narrow_hi[active] = nxt, l, h
            active = active[~snap & (np.abs(nxt - x) > eps)]
    return lam


# ---------------------------------------------------------------------------
# eigenvalue fields for plotting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenField:
    """Two-grid eigenvalue magnitudes per base frequency (2D only).

    ``values[i, k]`` is the magnitude of the eigenvalue attributed to
    harmonic ``kappas[k]`` at base ``thetas[i]`` (attribution follows the
    dominant eigenvector component, largest eigenvalues assigned first).
    The summary locates the field maximum by the coarse-grid frequency
    ``2 theta*`` of the worst base, the coarse mode whose correction is
    least effective.
    """

    thetas: np.ndarray
    kappas: np.ndarray
    values: np.ndarray
    smoother_abs: np.ndarray

    @property
    def max_imag(self) -> float:
        """Largest imaginary part: 0, the values come from a symmetric form."""
        return 0.0

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def summary(self) -> dict:
        i, k = np.unravel_index(int(self.values.argmax()), self.values.shape)
        base = self.thetas[i]
        return {
            "max_abs_eig": self.max_value,
            "max_imag_part": self.max_imag,
            "all_real": bool(self.max_imag < 1e-10),
            "argmax_base": [float(x) for x in base],
            "argmax_harmonic": [float(x) for x in base + np.pi * self.kappas[k]],
            "argmax_coarse_freq": [float(2 * x) for x in base],
        }

    def to_csv(self, path=None) -> str:
        header = "theta1,theta2," + ",".join(f"eig{k+1}" for k in range(self.values.shape[1])) \
            + ",smoother_abs"
        lines = [header]
        for i in range(self.thetas.shape[0]):
            cells = [repr(float(x)) for x in self.thetas[i]]
            cells += [repr(float(x)) for x in self.values[i]]
            cells.append(repr(float(self.smoother_abs[i])))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def eigenfield(spec: SmootherSpec, nu1: int, nu2: int,
               grid: FrequencyGrid = None) -> EigenField:
    """Per-frequency two-grid eigenvalues for heatmap-style inspection.

    The eigenvalues are those of the symmetric similar form ``Pi Sigma Pi``
    (module docstring), by ``eigh``, so they are real by construction.  An
    eigenvector ``y`` of that form maps to the eigenvector
    ``x = diag(sqrt(a))^-1 S^nu2 Pi y`` of the error symbol ``E``, whose
    dominant component attributes the eigenvalue to a harmonic.  A nonzero
    eigenvalue has ``y`` in the range of ``Pi``, so ``Pi y = y`` and ``Pi`` is
    not applied; a zero eigenvalue adds 0 to whichever slot it is given.
    Where eigenvalues repeat, or two components of ``x`` tie, the attribution
    is as arbitrary as the eigenvector basis ``eigh`` returns.
    """
    if spec.dim != 2:
        raise ValueError("eigenvalue fields are produced for dim 2 only")
    if grid is None:
        grid = FrequencyGrid(2)
    if nu1 < 0 or nu2 < 0:
        raise ValueError("smoothing step counts must be nonnegative")
    a_stencil = spec.a_stencil()
    a = grid._low_symbols(a_stencil)
    s = 1.0 - float(spec.omega) * grid._low_symbols(spec.m_stencil()) * a      # (K, N)
    # w = sqrt(a) p / |sqrt(a) p| is the root of the weights, as a and p are >= 0
    w = np.sqrt(grid._weights(a_stencil, restriction_stencil(2))).T
    k = w.shape[1]
    proj = np.eye(k) - w[:, :, None] * w[:, None, :]
    vals, y = np.linalg.eigh(proj @ ((s ** (nu1 + nu2)).T[:, :, None] * proj))
    vecs = ((s ** nu2) / np.sqrt(a)).T[:, :, None] * y
    magnitudes = np.abs(vals)
    attributed = np.zeros_like(magnitudes)
    for i in range(magnitudes.shape[0]):
        free = list(range(k))
        for j in np.argsort(-magnitudes[i]):
            slot = free.pop(int(np.abs(vecs[i][free, j]).argmax()))
            attributed[i, slot] = magnitudes[i, j]
    return EigenField(grid.low_points(), _kappas(2), attributed, np.abs(s[0]))


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def spectral_radius(matrix: np.ndarray) -> float:
    """Spectral radius of a small dense matrix, by the dense eigenvalue routine."""
    return float(np.abs(np.linalg.eigvals(np.asarray(matrix))).max())
