"""Constant-coefficient stencils on uniform grids.

A stencil is a finite map from integer offsets to coefficients.  Coefficients
are exact rationals (`fractions.Fraction`), so that algebraic identities
between operators can be checked without floating-point slack; a finite float
is accepted and converted exactly, a NaN or an infinity is rejected.

Grids are uniform lattices on the unit cube with Dirichlet values eliminated:
a grid with ``n`` points per dimension and spacing ``h`` represents the
interior nodes ``(i_1+1)h, ..., (i_d+1)h`` with ``0 <= i_k < n``.  A periodic
wrap-around mode exists solely as an oracle for dense-assembly tests, where
every row of an operator must reduce to the same translation-invariant row.

:func:`apply` has one rule for every stencil and both modes: a stencil is a
sum of rank-one terms (itself when it is rank one, else one per entry), each
term is swept one axis at a time over a box whose outside reads as zero, and
a periodic grid is wrap-padded into such a box and cropped back.

The interior rows of the additive Vanka smoothers are stencils too:
:func:`closed_form_stencil` gives them exactly for each :class:`PatchLayout`.
This module needs numpy only; the patch assembly itself lives in
:mod:`vankamg.vanka`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import prod
from numbers import Rational
from types import MappingProxyType

import numpy as np

__all__ = [
    "Stencil",
    "GridSpec",
    "delta_stencil",
    "laplacian_stencil",
    "mass_stencil",
    "tensor_product",
    "restriction_stencil",
    "galerkin_stencil",
    "PatchLayout",
    "closed_form_stencil",
    "apply",
]


def _exact(value) -> Fraction:
    """``value`` as an exact Fraction: rationals as they are, finite floats exactly."""
    if not isinstance(value, (Rational, float)):
        raise TypeError(f"stencil coefficient must be rational or float, got {type(value)!r}")
    try:
        return Fraction(value)
    except (ValueError, OverflowError) as exc:     # NaN, and +-inf
        raise ValueError(f"stencil coefficient must be finite, got {value!r}") from exc


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice of interior points on the unit cube.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 to 3.
    n : int
        Interior points per dimension; the total unknown count is ``n**dim``.
    h : float
        Mesh spacing.  For the Dirichlet-eliminated Poisson problem on the
        unit interval/square/cube, ``h = 1/(n+1)``.
    boundary : str
        ``"dirichlet"`` (eliminated boundary values, the production mode) or
        ``"periodic"`` (wrap-around, oracle use only).
    """

    dim: int
    n: int
    h: float
    boundary: str = "dirichlet"

    def __post_init__(self):
        object.__setattr__(self, "dim", operator.index(self.dim))
        object.__setattr__(self, "n", operator.index(self.n))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 3:
            raise ValueError(f"need at least 3 points per dimension, got n={self.n}")
        if not self.h > 0:
            raise ValueError(f"mesh spacing must be positive, got h={self.h}")
        if self.boundary not in ("dirichlet", "periodic"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    def ravel_index(self, coords) -> int:
        """Flat index (C order) of a lattice point given per-axis coordinates."""
        return int(np.ravel_multi_index(tuple(coords), self.shape))


@dataclass(frozen=True)
class Stencil:
    """Finite-difference stencil with exact rational coefficients.

    ``entries`` maps offset tuples of length ``dim`` to coefficients, each
    converted to a Fraction (a float exactly; NaN and infinities raise
    ``ValueError``).  The mapping is copied, normalised and made read-only at
    construction, so stencils shared by the memoised constructors and their
    cached arrays cannot drift apart; zero coefficients are kept if
    explicitly given (they matter for sparsity-pattern tests).
    """

    dim: int
    entries: dict = field(compare=True)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.entries:
            raise ValueError("stencil needs at least one entry")
        clean = {}
        for offset, coef in self.entries.items():
            offset = tuple(int(o) for o in offset)
            if len(offset) != self.dim:
                raise ValueError(f"offset {offset} does not match dim={self.dim}")
            clean[offset] = _exact(coef)
        object.__setattr__(self, "entries", MappingProxyType(clean))

    def __reduce__(self):
        return Stencil, (self.dim, dict(self.entries))

    # -- queries -----------------------------------------------------------

    @property
    def offsets(self) -> list:
        return sorted(self.entries)

    @property
    def reach(self) -> int:
        """Largest absolute offset component; wrap-around needs n > 2*reach."""
        return max(abs(c) for o in self.entries for c in o)

    @cached_property
    def is_symmetric(self) -> bool:
        """True when s[-o] == s[o] for every offset (exact comparison, made once)."""
        return all(self.entries.get(tuple(-c for c in o)) == v
                   for o, v in self.entries.items())

    @cached_property
    def is_reflection_symmetric(self) -> bool:
        """True when negating any one offset component keeps every coefficient.

        Exact, made once; an absent entry counts as 0.  Such a stencil has a
        symbol that is even in each ``theta_k`` (a polynomial in the
        ``cos theta_k``), which is what lets the analysis sample one
        reflection orthant of the frequency box.
        """
        return all(self.entries.get(o[:k] + (-o[k],) + o[k + 1:], 0) == v
                   for o, v in self.entries.items() for k in range(self.dim))

    @cached_property
    def _arrays(self):
        offs = np.array(self.offsets, dtype=np.int64).reshape(len(self.entries), self.dim)
        coefs = np.array([float(self.entries[tuple(o)]) for o in offs])
        return offs, coefs

    @cached_property
    def _axis_factors(self):
        """Per-axis 1D lines whose outer product is this stencil, or None.

        Detected once, in exact arithmetic: see :func:`_rank_one_factors`.
        """
        return _rank_one_factors(self)

    @cached_property
    def _terms(self):
        """One rank-one term per entry, explicit zeros included, in entry order.

        Each is the unit stencil's sweeps scaled by the coefficient, in the
        ``(scale, sweeps)`` form of :func:`_rank_one_factors`; their sum is
        this stencil.
        """
        return tuple((float(c), _rank_one_factors(Stencil(self.dim, {o: 1}))[1])
                     for o, c in self.entries.items())

    # -- algebra -----------------------------------------------------------

    def scaled(self, factor) -> "Stencil":
        factor = _exact(factor)
        return Stencil(self.dim, {o: c * factor for o, c in self.entries.items()})

    def plus(self, other: "Stencil") -> "Stencil":
        if other.dim != self.dim:
            raise ValueError("cannot add stencils of different dimension")
        out = dict(self.entries)
        for o, c in other.entries.items():
            out[o] = out.get(o, Fraction(0)) + c
        return Stencil(self.dim, out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize; coefficients become exact ``"p/q"`` strings."""
        entries = [{"offset": list(o), "coef": str(self.entries[o])} for o in self.offsets]
        return json.dumps({"dim": self.dim, "entries": entries},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Stencil":
        """Parse ``to_json`` output; a JSON number goes through the constructor's checks.

        ``"p/q"`` strings are read exactly; a number (including the
        ``Infinity`` and ``NaN`` Python's ``json`` accepts) is converted like
        any constructor argument, so a non-finite one raises ``ValueError``.
        """
        data = json.loads(text)
        return cls(int(data["dim"]),
                   {tuple(item["offset"]): Fraction(c) if isinstance(c := item["coef"], str) else c
                    for item in data["entries"]})


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def delta_stencil(dim: int) -> Stencil:
    """Identity operator: a single unit coefficient at the origin."""
    return Stencil(dim, {(0,) * dim: Fraction(1)})


@lru_cache(maxsize=256)
def laplacian_stencil(dim: int, h) -> Stencil:
    """Second-order central-difference negative Laplacian.

    ``1/h**2 * [-1 2 -1]`` in 1D, the 5-point and 7-point versions in 2D/3D.
    Pass ``h`` as a Fraction (or a dyadic float, which converts exactly) to
    keep the coefficients rational.  Memoised per ``(dim, h)``: equal
    arguments return the same object, so its cached arrays and axis factors
    are computed once.
    """
    hh = Fraction(h) ** 2
    entries = {(0,) * dim: Fraction(2 * dim) / hh}
    for axis in range(dim):
        for sign in (-1, 1):
            offset = [0] * dim
            offset[axis] = sign
            entries[tuple(offset)] = Fraction(-1) / hh
    return Stencil(dim, entries)


def _tensor_power(line: Stencil, dim: int) -> Stencil:
    """``line`` tensored with itself ``dim`` times: the same 1D line on every axis."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    return reduce(tensor_product, [line] * dim)


def mass_stencil(dim: int, h) -> Stencil:
    """Consistent Q1 mass-matrix stencil scaled to pair with the Laplacian.

    Returns ``h/6 [1 4 1]`` in 1D, ``h^2/36 [[1,4,1],[4,16,4],[1,4,1]]`` in
    2D, and ``h^2/216 [1 4 1]^(x3)``, a rank-one tensor of order 3, in 3D:
    the tensor power of ``[1 4 1]/6``, the consistent mass (the lumped one
    would be diagonal).  The 3D variant keeps the ``h^2`` scale so the
    product with the 7-point Laplacian symbol stays dimensionless.
    """
    line = Stencil(1, {(-1,): Fraction(1, 6), (0,): Fraction(4, 6), (1,): Fraction(1, 6)})
    return _tensor_power(line, dim).scaled(Fraction(h) ** min(dim, 2))


def tensor_product(a: Stencil, b: Stencil) -> Stencil:
    """Outer product of stencils; symbols multiply accordingly.

    The offsets of the product are the concatenations ``oa + ob``, all distinct.
    """
    return Stencil(a.dim + b.dim, {oa + ob: ca * cb for oa, ca in a.entries.items()
                                   for ob, cb in b.entries.items()})


@lru_cache(maxsize=None)
def restriction_stencil(dim: int) -> Stencil:
    """Full weighting ``R``: ``[1/4 1/2 1/4]`` on every axis, symbol ``prod (1 + cos)/2``.

    The one grid transfer of the package.  Coarse point ``J`` sits on fine
    point ``2J``; ``R`` averages the fine values around it, and linear
    interpolation is ``P = 2**dim R^T``.  The analysis takes its transfer
    symbol from this stencil, ``galerkin_stencil`` its weights and the
    solver its stored restriction matrix.  Memoised, so the frequency-grid caches keyed
    by stencil identity see one object per dimension.
    """
    line = Stencil(1, {(-1,): Fraction(1, 4), (0,): Fraction(1, 2), (1,): Fraction(1, 4)})
    return _tensor_power(line, dim)


def galerkin_stencil(a: Stencil) -> Stencil:
    """Stencil of the Galerkin coarse operator ``2**-dim P^T A P``.

    ``P = 2**dim R^T`` is linear interpolation from the grid of spacing
    ``2h`` (coarse point ``J`` on fine point ``2J``), ``R`` the full
    weighting of :func:`restriction_stencil`, and ``A`` applies ``a``.  The
    coarse operator is ``2**dim R A R^T`` and ``R`` is a tensor product of
    1D lines ``r``, so the coarse entry at offset ``J`` is

        ``sum_k a(k) prod_m W(2 J_m - k_m)``

    with ``W = 2 r * r = [1/8 1/2 3/4 1/2 1/8]`` on offsets ``-2..2``, the
    line correlated with itself.  Its symbol at ``2 theta`` is
    ``sum_k p_k^2 a~(theta_k)`` over the harmonics of ``theta``, the coarse
    symbol the two-grid analysis uses.  The product over ``m`` is summed one
    axis at a time, in exact arithmetic.

    On a Dirichlet grid with ``n = 2**k - 1`` points every hat of ``P`` lies
    inside the box, so the stencil assembled on the coarse grid is the
    Galerkin matrix itself, entry for entry.
    """
    line = restriction_stencil(1).entries
    weights = {}
    for (i,), ri in line.items():
        for (j,), rj in line.items():
            weights[j - i] = weights.get(j - i, 0) + 2 * ri * rj
    span = range(-((a.reach + 2) // 2), (a.reach + 2) // 2 + 1)
    coefs = a.entries
    for axis in range(a.dim):
        summed = {}
        for o, c in coefs.items():
            for j in span:
                weight = weights.get(2 * j - o[axis])
                if weight is not None:
                    key = o[:axis] + (j,) + o[axis + 1:]
                    summed[key] = summed.get(key, 0) + c * weight
        coefs = summed
    return Stencil(a.dim, {o: c for o, c in coefs.items() if c != 0})


# ---------------------------------------------------------------------------
# closed-form interior stencils of the additive Vanka smoothers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchLayout:
    """Which overlapping decomposition to use: ``element`` or ``vertex``."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("element", "vertex"):
            raise ValueError(f"unknown patch kind {self.kind!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")


# (kind, dim) -> (denominator, numerators by offset): the interior row is
# ``h^2/denominator`` times the numerators, which ``apply`` sums in this order.
_CLOSED_FORMS = {
    ("element", 1): (6, {(-1,): 1, (0,): 4, (1,): 1}),
    ("vertex", 1): (12, {(-2,): 1, (-1,): 4, (0,): 10, (1,): 4, (2,): 1}),
    ("element", 2): (96, {(-1, -1): 1, (-1, 0): 4, (-1, 1): 1,
                          (0, -1): 4, (0, 0): 28, (0, 1): 4,
                          (1, -1): 1, (1, 0): 4, (1, 1): 1}),
    ("vertex", 2): (240, {(0, 0): 68,
                          (-1, 0): 8, (-2, 0): 1, (1, 0): 8, (2, 0): 1,
                          (0, -1): 8, (0, -2): 1, (0, 1): 8, (0, 2): 1,
                          (-1, -1): 2, (-1, 1): 2, (1, -1): 2, (1, 1): 2}),
}


def closed_form_stencil(layout: PatchLayout, h) -> Stencil:
    """Exact interior stencil of the additive Vanka operator.

    These are the translation-invariant rows the assembled operator takes
    away from the boundary (equivalently, everywhere on a periodic grid):

    * element 1D: ``h^2/6 [1 4 1]``
    * vertex 1D:  ``h^2/12 [1 4 10 4 1]``
    * element 2D: ``h^2/96 [[1 4 1] [4 28 4] [1 4 1]]``
    * vertex 2D:  ``h^2/240`` with centre 68, axis 8, diagonal 2, axis-2 1.
    """
    key = (layout.kind, layout.dim)
    if key not in _CLOSED_FORMS:
        raise NotImplementedError(f"no closed form for {key[0]} patches in dim {key[1]}")
    denominator, row = _CLOSED_FORMS[key]
    return Stencil(layout.dim, {o: Fraction(c, denominator) for o, c in row.items()}
                   ).scaled(Fraction(h) ** 2)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

# points per slab of a product on a large grid: 2**16 float64 values, 512 KiB,
# so a slab of the input, the output and one work buffer stay in a 2 MiB L2
# cache for all the work done on them.  Of 2**14 to 2**17 it gives the
# fastest 3D n = 63 mass V-cycle (6.1 ms against 6.2-6.3 ms at 2**15 and
# 7.5-8.9 ms at 2**17, one BLAS thread, 2-CPU VM), and it keeps the 2D
# n = 255 Vanka level (65025 rows) one slab: at 2**15 its V-cycle takes
# 1.63-1.69 ms against 1.59-1.62 ms.
SLAB_ROWS = 2**16


def _rank_one_factors(stencil: Stencil):
    """Factor an exact stencil as an outer product of 1D lines, or return None.

    The line along axis ``k`` is the stencil restricted to the offsets that
    agree with a pivot entry ``p`` off axis ``k``; lines after the first are
    divided by ``p``.  The coefficient tensor is rank one exactly when every
    nonzero entry equals the product of its lines and the two supports have
    the same size.  The test runs in exact ``Fraction`` arithmetic.

    Returns ``(scale, sweeps)``: ``sweeps`` holds ``(axis, line)`` pairs, each
    ``line`` a tuple of ``(offset, float coefficient)`` with offset 0 first.
    Each line is divided by its nearest off-centre coefficient, so the mass
    lines become ``[1 4 1]`` and their neighbours are added without a
    multiply or a temporary; an axis whose line is a lone centre coefficient
    is not swept.  ``scale`` is the product of everything divided out.
    """
    support = {o: c for o, c in stencil.entries.items() if c != 0}
    if not support:
        return None
    pivot, p = next(iter(support.items()))
    lines = [{o[axis]: c if axis == 0 else c / p for o, c in support.items()
              if all(o[k] == pivot[k] for k in range(stencil.dim) if k != axis)}
             for axis in range(stencil.dim)]
    if prod(map(len, lines)) != len(support):
        return None
    if any(prod(line.get(o_k, 0) for line, o_k in zip(lines, o)) != c
           for o, c in support.items()):
        return None
    scale = Fraction(1)
    sweeps = []
    for axis, line in enumerate(lines):
        offsets = sorted(line, key=abs)
        unit = line[next((o for o in offsets if o), 0)]
        scale *= unit
        if offsets != [0]:
            sweeps.append((axis, tuple((o, float(line[o] / unit)) for o in offsets)))
    return float(scale), tuple(sweeps)


def _sweep(src: np.ndarray, dst: np.ndarray, axis: int, line, start: int = 0) -> None:
    """``dst = `` the 1D stencil ``line`` applied to ``src`` along ``axis``.

    ``dst`` holds positions ``[start, start + m)`` of ``src`` along ``axis``
    (``m`` its length there; ``src`` may reach past them) and all of ``src``
    along the other axes.  Each point adds the terms of ``line`` in order and
    skips those off the box.
    """
    n, m = src.shape[axis], dst.shape[axis]

    def cut(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    if line[0][0] == 0:
        np.multiply(src[cut(start, start + m)], line[0][1], out=dst)
        line = line[1:]
    else:
        dst.fill(0.0)
    for o, c in line:
        lo, hi = max(start, -o), min(start + m, n - o)
        if lo < hi:
            d, s = cut(lo - start, hi - start), cut(lo + o, hi + o)
            dst[d] += src[s] if c == 1.0 else c * src[s]


def _apply_factored(factors, v: np.ndarray) -> np.ndarray:
    """Apply ``_rank_one_factors`` output to the box array ``v``, axis by axis.

    The work runs in slabs of whole axis-0 planes, at most
    :data:`SLAB_ROWS` points each (one plane if a plane is larger): the
    axis-0 sweep of planes ``[a, b)`` reads input planes
    ``[a - reach, b + reach)``, and the later sweeps and the ``scale`` run on
    that slab while it is in cache, through one work buffer of one slab.
    No sweep crosses a plane but the first, so every point gets the same
    terms in the same order as on the whole box, bit for bit.
    """
    scale, sweeps = factors
    if not sweeps:
        return scale * v
    n = v.shape[0]
    step = max(1, SLAB_ROWS * n // v.size)
    out = np.empty_like(v)
    work = np.empty((min(step, n),) + v.shape[1:]) if len(sweeps) > 1 else None
    for a in range(0, n, step):
        b = min(a + step, n)
        buffers = (out[a:b], None if work is None else work[:b - a])
        # alternate the two buffers so that the last sweep writes ``out``
        dst = 1 - len(sweeps) % 2
        src = v[a:b]
        for axis, line in sweeps:
            if axis == 0:
                _sweep(v, buffers[dst], 0, line, a)
            else:
                _sweep(src, buffers[dst], axis, line)
            src, dst = buffers[dst], 1 - dst
        if scale != 1.0:
            out[a:b] *= scale
    return out


def apply(stencil: Stencil, grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Apply a stencil to a flat grid function, honouring the boundary mode.

    Dirichlet mode treats out-of-range neighbours as zero; periodic mode
    wraps indices (oracle use).  The result is a new flat array; the input
    is never modified.

    One rule serves every stencil: it is a sum of rank-one terms, and each
    term is applied one axis at a time on a Dirichlet box, one 1D sweep per
    axis through two work buffers.  A rank-one stencil (the mass stencils,
    the Jacobi scaling, any ``tensor_product`` of 1D lines) is one term,
    3 + 3 + 3 shifted terms for the 27-point 3D mass stencil instead of 27,
    and its result is returned as the sweeps leave it; the truncated sum
    factors over the axes of the box, so it equals the entry-by-entry sum
    up to rounding.  Any other stencil is one term per entry
    (:attr:`Stencil._terms`), added into zeros in entry order, which is the
    entry-by-entry sum bit for bit.  On a box of more than
    :data:`SLAB_ROWS` points the sweeps run slab by slab of axis-0 planes,
    with the same result bit for bit.  A periodic grid is wrap-padded by the
    stencil's reach on every side, applied as a box and cropped back.
    """
    if stencil.dim != grid.dim:
        raise ValueError(f"stencil dim {stencil.dim} != grid dim {grid.dim}")
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.npoints,):
        raise ValueError(f"expected flat array of length {grid.npoints}, got shape {u.shape}")
    v = u.reshape(grid.shape)
    periodic = grid.boundary == "periodic"
    if periodic:
        reach = stencil.reach
        if grid.n <= 2 * reach:
            raise ValueError(f"periodic wrap needs n > {2 * reach}, got n={grid.n}")
        v = np.pad(v, reach, mode="wrap")
    if stencil._axis_factors is not None:
        out = _apply_factored(stencil._axis_factors, v)
    else:
        out = np.zeros_like(v)
        for term in stencil._terms:
            out += _apply_factored(term, v)
    if periodic:
        out = out[(slice(reach, reach + grid.n),) * grid.dim]
    return out.reshape(-1)
