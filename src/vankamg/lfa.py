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
only the largest modulus over all bases, so it bounds and prunes in one
pass: the ends of each bracket bound its root's modulus from both sides,
the largest bound from below over brackets of constant sign starts
``best``, and a bracket is dropped when its bound from above is at most
``best`` or the sign of the secular function at ``±best`` (it increases
between its poles) proves its root lies inside ``[-best, best]``.  The rest
are solved; the result is the one solving every bracket gives.  In 1D the
single bracket has a closed-form root.  ``two_grid_factors`` runs this for
a whole batch of dampings (an omega scan) at once: each damping keeps its
own ``best``, and the kept brackets of every damping are solved in one
call.  A root depends only on its own bracket, so every value is the one a
call per damping gives, bit for bit; ``two_grid_factor`` is the batch of
one.  ``eigvals`` of the dense blocks ``_two_grid_stack`` assembles is the
oracle.

Every stencil the analysis evaluates (the Laplacian, each smoother's ``M``
and the full weighting) is symmetric under each axis reflection, so its
symbol is even in each ``theta_k``, a polynomial in the ``cos theta_k``.
Reflecting a base reflects its harmonics too, as ``cos(o(pi - t)) =
cos(o(t + pi))`` for integer ``o``, so the two-grid block and the smoothing
symbols of a base are those of its mirror.  The maxima are therefore taken
over one reflection orthant of the low box, ``{-pi/2}`` and ``[0, pi/2)`` per
axis (Wienands and Joppich 2005 shrink the LFA sample set by the stencil's
symmetry group the same way): ``n/4 + 1`` of the ``n/2`` low samples per axis,
4912 of the 32767 bases in 3D at 64 samples.  The low samples are
mirror-exact and the symbols are built elementwise from one real ``cos``
table per axis, so a mirrored base gives the same floats and the orthant
maximum is the box maximum bit for bit.  A stencil without the symmetry is
refused.  ``eigenfield`` still lists the whole box.

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
import operator

import numpy as np

from .stencils import (PatchLayout, Stencil, closed_form_stencil, delta_stencil,
                       laplacian_stencil, mass_stencil, restriction_stencil)

__all__ = [
    "SmootherKind",
    "SmootherSpec",
    "FrequencyGrid",
    "OptimalDamping",
    "EigenField",
    "symbol",
    "smoothing_factor",
    "optimal_omega",
    "two_grid_factor",
    "two_grid_factors",
    "eigenfield",
]

DEFAULT_SAMPLES = 64

# cap on FrequencyGrid.nbytes_estimate: a larger grid is refused before
# anything is allocated (3D at 256 samples is the largest accepted)
MEMORY_BUDGET_BYTES = 2**30

# tracemalloc peak of ``eigenfield`` in units of FrequencyGrid.nbytes_estimate:
# 3.76 measured at 256 and 1024 samples (the projector, the matrix eigh takes
# and its eigenvectors, plus the (K, N) symbols); by this count 2896 samples is
# the largest field under MEMORY_BUDGET_BYTES
_EIGENFIELD_STACKS = 4


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
        object.__setattr__(self, "dim", operator.index(self.dim))
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

    The first half of the 1D samples covers the low region ``[-pi/2, pi/2)``
    and is mirror-exact: ``low_1d[j] == -low_1d[n/2 - j]`` as floats.  With
    ``samples_per_dim`` divisible by 4 the grid contains ``0``, ``pi/2`` and
    ``pi`` exactly.  The maxima of the analysis are taken over the
    reflection orthant ``orthant_1d``, ``{-pi/2}`` and the samples in
    ``[0, pi/2)``, which holds one of each mirror pair of low samples: every
    stencil the analysis evaluates is symmetric under each axis reflection,
    so a harmonic's symbol at a low sample equals, bit for bit, the same
    harmonic's at the mirrored sample (module docstring).  The symbols on the
    orthant are held per grid.  Grids whose ``nbytes_estimate`` exceeds
    ``MEMORY_BUDGET_BYTES`` are refused at construction.
    """

    dim: int
    samples_per_dim: int = DEFAULT_SAMPLES

    def __post_init__(self):
        object.__setattr__(self, "dim", operator.index(self.dim))
        object.__setattr__(self, "samples_per_dim", operator.index(self.samples_per_dim))
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

        ``(samples/2)**dim`` bases times ``K**2 = 4**dim`` entries.  The
        maxima never build such a stack (they hold ``(K, N)`` symbols on one
        orthant); ``eigenfield`` holds several at once and counts its peak in
        this unit (``_EIGENFIELD_STACKS``).
        """
        return 8 * self.samples_per_dim**self.dim * 2**self.dim

    @cached_property
    def theta_1d(self) -> np.ndarray:
        n = self.samples_per_dim
        # -pi/2 + 2 pi j/n written as pi (4j - n)/(2n): the quotient is odd in
        # 4j - n, so the low half is mirror-exact, and it is exactly 0, 1/2
        # and 1 at 0, pi/2 and pi
        return np.pi * ((4 * np.arange(n) - n) / (2 * n))

    @cached_property
    def low_1d(self) -> np.ndarray:
        return self.theta_1d[: self.samples_per_dim // 2]

    @cached_property
    def orthant_1d(self) -> np.ndarray:
        """``-pi/2`` and the low samples in ``[0, pi/2)``: ``n//4 + 1`` of ``n/2``."""
        low = self.low_1d
        return np.concatenate((low[:1], low[low >= 0]))

    def _cartesian(self, axis_values) -> np.ndarray:
        grids = np.meshgrid(*([axis_values] * self.dim), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def _off_origin(self, axis_values) -> np.ndarray:
        """Mask over ``_cartesian(axis_values)``, False only at ``theta = 0``."""
        at_origin = axis_values == 0
        for _ in range(self.dim - 1):
            at_origin = np.logical_and.outer(at_origin, axis_values == 0)
        return ~at_origin.reshape(-1)

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
        return self._off_origin(self.low_1d)

    def low_points(self, skip_origin: bool = True) -> np.ndarray:
        """Samples of the low region; the singular origin is dropped by default."""
        pts = self._cartesian(self.low_1d)
        return pts[self.off_origin] if skip_origin else pts

    @cached_property
    def _held(self) -> dict:
        return {}

    def _hold(self, tag: str, stencils: tuple, build) -> np.ndarray:
        """``build()`` made read-only and kept for the life of the grid.

        Keyed by ``tag`` and the ``id`` of each stencil; the entry holds the
        stencils, so no ``id`` can be reused while cached.  A ``build`` that
        raises keeps nothing, so the next call raises again.
        """
        key = (tag, *map(id, stencils))
        held = self._held.get(key)
        if held is None:
            values = build()
            values.flags.writeable = False
            held = self._held[key] = (stencils, values)
        return held[1]

    def _orthant_symbols(self, stencil: Stencil) -> np.ndarray:
        """``_harmonic_symbols`` on ``orthant_1d``, origin included, read-only.

        Computed once per stencil object: the symbols do not depend on omega
        or the sweep counts, so a table or an omega scan on one grid
        evaluates each stencil once.  Rows ``1:`` are the high frequencies.
        """
        return self._hold("orthant", (stencil,),
                          lambda: _harmonic_symbols(stencil, self.dim, self.orthant_1d))

    def _low_symbols(self, stencil: Stencil) -> np.ndarray:
        """``_orthant_symbols`` at the bases off the origin, read-only."""
        return self._hold("low", (stencil,), lambda: self._orthant_symbols(stencil)[
            :, self._off_origin(self.orthant_1d)])

    def _weights(self, a_stencil: Stencil, p_stencil: Stencil) -> np.ndarray:
        """``_secular_weights`` of the low symbols of ``a`` and ``p``, read-only.

        Computed once per stencil pair, like ``_low_symbols``; a singular
        coarse symbol raises on every call.
        """
        return self._hold("weights", (a_stencil, p_stencil), lambda: _secular_weights(
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


def _harmonic_symbols(stencil: Stencil, dim: int, bases_1d: np.ndarray) -> np.ndarray:
    """Real symbol at every harmonic of the Cartesian bases, shape ``(K, N)``.

    The stencil must be symmetric under each axis reflection; then
    ``exp(i o . theta)`` reduces to ``prod_k cos(o_k theta_k)``, so the symbol
    is the coefficient tensor contracted axis by axis with the real table
    ``cos(o theta)`` of ``bases_1d``.  The harmonic ``theta + pi`` takes the
    same table times ``(-1)**o``, exactly ``cos(o (theta + pi))``.  The
    contraction is elementwise, axis by axis with the axis moved last, so a
    column depends only on its own base: mirrored bases give bit-identical
    columns.  Row ``k`` is harmonic
    ``kappas[k]``; columns follow the Cartesian product of ``bases_1d`` (axis
    0 slowest).  Every grid route of the analysis starts here, so a grid of
    the wrong dimension, or a stencil without the symmetry, raises here.
    """
    if dim != stencil.dim:
        raise ValueError(f"frequency grid dim {dim} != stencil dim {stencil.dim}")
    if not stencil.is_reflection_symmetric:
        raise ValueError("the analysis needs a stencil symmetric under each axis "
                         "reflection; its maxima are taken over one reflection orthant")
    offsets, coefs = stencil._arrays
    reach = offsets.max(axis=0)
    values = np.zeros(tuple(2 * reach + 1))
    values[tuple((offsets + reach).T)] = coefs
    for axis in range(dim):
        orders = np.arange(-reach[axis], reach[axis] + 1)
        table = np.cos(np.multiply.outer(orders, bases_1d))
        table = np.stack((table, table * (-1.0) ** orders[:, None]), axis=1)  # (R, 2, N1)
        values = sum(np.multiply.outer(row, line) for row, line in zip(values, table))
    split = values.reshape((2, len(bases_1d)) * dim)
    order = [*range(0, 2 * dim, 2), *range(1, 2 * dim, 2)]
    return split.transpose(order).reshape(2**dim, len(bases_1d)**dim)


def smoother_symbol(spec: SmootherSpec, theta) -> np.ndarray:
    """Symbol of ``S = I - omega M A``; real for the supported smoothers."""
    t = symbol(spec.m_stencil(), theta).real * symbol(spec.a_stencil(), theta).real
    return 1.0 - float(spec.omega) * t


def smoothing_factor(spec: SmootherSpec, grid: FrequencyGrid = None) -> float:
    """Largest ``|S~|`` over the sampled high-frequency region."""
    if grid is None:
        grid = FrequencyGrid(spec.dim)
    t = _product_symbol_high(spec.m_stencil(), spec.a_stencil(), grid)
    return float(np.abs(1.0 - float(spec.omega) * t).max())


def _product_symbol_high(m_stencil: Stencil, a_stencil: Stencil,
                         grid: FrequencyGrid) -> np.ndarray:
    """``M~ A~`` at the high harmonics of the orthant bases, from the grid's cache.

    Every high sample of the box, or its mirror, is among them, with the
    same value bit for bit, so the extremes are those of the whole box.
    """
    return grid._orthant_symbols(m_stencil)[1:] * grid._orthant_symbols(a_stencil)[1:]


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
    # the memoised stencils a SmootherSpec returns, whose symbols a shared grid holds
    t = _product_symbol_high(smoother_m_stencil(kind, dim, 1), laplacian_stencil(dim, 1), grid)
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


def _sweeps(count) -> int:
    """A smoothing sweep count as an ``int``; raises unless it is a nonnegative integer."""
    count = operator.index(count)
    if count < 0:
        raise ValueError("smoothing step counts must be nonnegative")
    return count


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


def two_grid_factor(spec: SmootherSpec, nu1: int, nu2: int,
                    grid: FrequencyGrid = None) -> float:
    """Largest spectral radius of the error symbol over the sampled low region.

    The batch of one of :func:`two_grid_factors`; ``max |eigvals|`` of
    ``_two_grid_stack`` is the oracle.
    """
    return two_grid_factors(spec.kind, spec.dim, [float(spec.omega)], nu1, nu2, grid)[0]


def two_grid_factors(kind, dim: int, omegas, nu1: int, nu2: int,
                     grid: FrequencyGrid = None) -> list:
    """``two_grid_factor`` at each damping of ``omegas``, one float per omega.

    Uses the rank-one structure of the block (module docstring) instead of
    assembling it, and solves the secular equation only in brackets whose
    root can set the maximum (``_rank_one_radius``), for a whole batch of
    dampings in one pass.  A root depends only on its own bracket, so each
    value equals a call per omega bit for bit.  The symbols and the weights
    come from the grid's cache on the reflection orthant, whose maximum is
    the low region's bit for bit; the dampings are taken in chunks of at
    most ``_CHUNK_COLUMNS`` (omega, base) columns, which bounds the memory
    of a long 3D scan.
    """
    dim = operator.index(dim)
    kind = _supported(kind, dim)
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    bad = [omega for omega in omegas.tolist() if not 0 < omega <= 2]   # nan too
    if bad:
        raise ValueError(f"damping must lie in (0, 2], got {bad[0]}")
    if grid is None:
        grid = FrequencyGrid(dim)
    nu = _sweeps(nu1) + _sweeps(nu2)
    # the memoised stencils a SmootherSpec returns, whose symbols a shared grid holds
    a_stencil = laplacian_stencil(dim, 1)
    a, m = grid._low_symbols(a_stencil), grid._low_symbols(smoother_m_stencil(kind, dim, 1))
    w2 = grid._weights(a_stencil, restriction_stencil(dim))
    step = max(1, _CHUNK_COLUMNS // a.shape[1])
    rho = []
    for start in range(0, omegas.size, step):
        rho += _rank_one_radius(omegas[start:start + step], nu, a, m, w2).tolist()
    return rho


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


# (omega, base) columns of one ``_rank_one_radius`` pass, which bounds its
# temporaries and the brackets it solves: a 2D scan of 75 dampings at 64
# samples (288 bases each) is one pass, a 3D one (4912 bases) runs 6
# dampings per pass
_CHUNK_COLUMNS = 2**15


def _rank_one_radius(omegas, nu: int, a, m, w2) -> np.ndarray:
    """Largest ``rho(Pi Sigma Pi)`` over the columns of per-harmonic symbols, per omega.

    ``a``, ``m`` and the weights ``w2`` (``_secular_weights``) have shape
    ``(K, N)``; the result has one entry per damping of ``omegas``.  The
    radius of a column is ``max(|lambda_min|, |lambda_max|)``, the larger
    modulus of the roots in its two end brackets.  In 1D (``K = 2``) there is
    one bracket and, as the weights sum to 1, its root is
    ``w2[0] sigma[1] + w2[1] sigma[0]``.  Otherwise each omega's maximum is
    found by bound and prune, which gives the value of solving every bracket:

    * a bracket of constant sign bounds its root's modulus from below by its
      nearer end; the largest such bound is the omega's ``best``;
    * a bracket is dropped when its root provably lies in ``[-best, best]``:
      its bound from above, ``max(|lo|, |hi|)``, is at most ``best``, or on
      each side it reaches past, ``±best`` lies strictly inside and ``f`` has
      the sign that puts the root on the near side (``f`` increases between
      the poles, so ``f(best) >= 0`` means root ``<= best`` and
      ``f(-best) <= 0`` means root ``>= -best``).  A bracket with ``±best`` at
      an end is kept, as ``f`` has a pole there;
    * the kept brackets of every omega are solved in one ``_secular_roots``
      call, whose rows do not interact, and their roots raise ``best``.
    """
    # the same rounding as 1 - omega m a; a negative base makes ``**`` take a
    # far slower libm path, so the power is taken of |s|
    s = m[:, None] * np.asarray(omegas, dtype=float)[:, None]     # (K, B, N)
    s *= a[:, None]
    np.subtract(1.0, s, out=s)
    sigma = np.abs(s)
    sigma **= nu
    if nu % 2:
        np.copysign(sigma, s, out=sigma)
    del s                           # freed before the next (K, B, N) temporary
    k, batch, n = sigma.shape
    if k == 2:
        return np.abs(w2[0] * sigma[1] + w2[1] * sigma[0]).max(axis=1)
    sigma = sigma.reshape(k, -1)    # a 2D sort along axis 0 is faster than a 3D one
    ordered = np.sort(sigma, axis=0).reshape(k, batch, n)
    lo = np.concatenate((ordered[0], ordered[k - 2]), axis=1)     # (B, 2N)
    hi = np.concatenate((ordered[1], ordered[k - 1]), axis=1)
    del ordered
    # (B N, K) and (N, K) views: bracket i, a flat index of (B, 2N), belongs
    # to omega i // 2n and to the column i % n of its base
    sigma, w2 = sigma.T, w2.T
    lo_flat, hi_flat = lo.reshape(-1), hi.reshape(-1)

    def rows(brackets):
        cols = brackets % n
        return sigma[brackets // (2 * n) * n + cols], w2[cols]

    upper = np.maximum(np.abs(lo), np.abs(hi))
    floor = np.where((lo > 0) | (hi < 0), np.minimum(np.abs(lo), np.abs(hi)), 0.0)
    best = floor.max(axis=1)
    open_ = np.flatnonzero(upper > best[:, None])
    bound = best[open_ // (2 * n)]
    kept = np.zeros(open_.size, dtype=bool)
    for sign, end in ((1.0, hi_flat), (-1.0, lo_flat)):
        x = sign * bound
        reach = sign * end[open_] > bound
        inside = np.flatnonzero(reach & (lo_flat[open_] < x) & (x < hi_flat[open_]))
        sigma_in, w2_in = rows(open_[inside])
        f = (w2_in / (sigma_in - x[inside, None])).sum(axis=1)
        reach[inside] = sign * f < 0
        kept |= reach
    solved = open_[kept]
    roots = _secular_roots(*rows(solved), lo_flat[solved], hi_flat[solved])
    np.maximum.at(best, solved // (2 * n), np.abs(roots))
    return best


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
    harmonic ``kappas[k]`` at base ``thetas[i]``: largest magnitude first,
    each eigenvalue goes to the dominant component of its eigenvector among
    the harmonics still free, a tie to the lowest harmonic index.
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
        table = np.column_stack((self.thetas, self.values, self.smoother_abs))
        # a float row at a time: the whole table as a list would hold every float at once
        text = "\n".join([header, *(",".join(map(repr, row.tolist())) for row in table)]) + "\n"
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
    The attribution (``EigenField``) runs in ``K`` vectorised passes over all
    bases, one per rank of magnitude; ``argmax`` over the free components
    takes the lowest harmonic of a tie.  Where eigenvalues repeat, or two
    components of ``x`` tie, the attribution is as arbitrary as the
    eigenvector basis ``eigh`` returns.  The peak memory is
    ``_EIGENFIELD_STACKS`` stacks of ``grid.nbytes_estimate``; a field over
    ``MEMORY_BUDGET_BYTES`` by that count raises before anything is allocated.
    """
    if spec.dim != 2:
        raise ValueError("eigenvalue fields are produced for dim 2 only")
    if grid is None:
        grid = FrequencyGrid(2)
    nu1, nu2 = _sweeps(nu1), _sweeps(nu2)
    need = _EIGENFIELD_STACKS * grid.nbytes_estimate
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"an eigenvalue field on {grid.samples_per_dim} samples needs about "
            f"{need / 2**20:.0f} MiB, over the {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget")
    # the CSV lists every base of the box, so its symbols are not the grid's
    a, m, p = (_harmonic_symbols(st, grid.dim, grid.low_1d)[:, grid.off_origin]
               for st in (spec.a_stencil(), spec.m_stencil(), restriction_stencil(2)))
    s = 1.0 - float(spec.omega) * m * a                                   # (K, N)
    # w = sqrt(a) p / |sqrt(a) p| is the root of the weights, as a and p are >= 0
    w = np.sqrt(_secular_weights(a, p)).T
    proj = np.eye(w.shape[1]) - w[:, :, None] * w[:, None, :]
    del m, p, w   # the eigensolve sets the peak (_EIGENFIELD_STACKS): hold only what it needs
    vals, vecs = np.linalg.eigh(proj @ ((s ** (nu1 + nu2)).T[:, :, None] * proj))
    del proj
    vecs *= ((s ** nu2) / np.sqrt(a)).T[:, :, None]
    magnitudes = np.abs(vals)
    # one pass per rank of magnitude, largest first, over all bases
    rows = np.arange(magnitudes.shape[0])
    taken = np.zeros(magnitudes.shape, dtype=bool)
    attributed = np.zeros_like(magnitudes)
    for j in np.argsort(-magnitudes, axis=1).T:
        comps = np.abs(vecs[rows, :, j])
        comps[taken] = -1.0
        slot = comps.argmax(axis=1)
        taken[rows, slot] = True
        attributed[rows, slot] = magnitudes[rows, j]
    return EigenField(grid.low_points(), _kappas(2), attributed, np.abs(s[0]))

