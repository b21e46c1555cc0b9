"""Constant-coefficient stencils on uniform grids.

A stencil is a finite map from integer offsets to coefficients.  Coefficients
are kept as exact rationals (`fractions.Fraction`) whenever they come from a
closed-form expression, so that algebraic identities between operators can be
checked without floating-point slack; float coefficients are accepted for
derived or measured operators.

Grids are uniform lattices on the unit cube with Dirichlet values eliminated:
a grid with ``n`` points per dimension and spacing ``h`` represents the
interior nodes ``(i_1+1)h, ..., (i_d+1)h`` with ``0 <= i_k < n``.  A periodic
wrap-around mode exists solely as an oracle for dense-assembly tests, where
every row of an operator must reduce to the same translation-invariant row.

The interior rows of the additive Vanka smoothers are stencils too:
:func:`closed_form_stencil` gives them exactly for each :class:`PatchLayout`.
This module needs numpy only; the patch assembly itself lives in
:mod:`vankamg.vanka`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
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
    "galerkin_stencil",
    "PatchLayout",
    "closed_form_stencil",
    "apply",
]


def _exact(value):
    """Coerce ints and rationals to Fraction, leave floats alone."""
    if isinstance(value, float):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"stencil coefficient must be rational or float, got {type(value)!r}")


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
    """Finite-difference stencil with exact or floating coefficients.

    ``entries`` maps offset tuples of length ``dim`` to coefficients.  The
    mapping is copied, normalised and made read-only at construction, so
    stencils shared by the memoised constructors and their cached arrays
    cannot drift apart; zero coefficients are kept if explicitly given (they
    matter for sparsity-pattern tests).
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
        """Serialize; rational coefficients become strings, floats stay numbers."""
        entries = []
        for o in self.offsets:
            c = self.entries[o]
            coef = str(c) if isinstance(c, Fraction) else c
            entries.append({"offset": list(o), "coef": coef})
        return json.dumps({"dim": self.dim, "entries": entries},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Stencil":
        data = json.loads(text)
        entries = {}
        for item in data["entries"]:
            coef = item["coef"]
            coef = Fraction(coef) if isinstance(coef, str) else float(coef)
            entries[tuple(item["offset"])] = coef
        return cls(int(data["dim"]), entries)


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


_MASS_1D = {(-1,): Fraction(1, 6), (0,): Fraction(4, 6), (1,): Fraction(1, 6)}


def mass_stencil(dim: int, h) -> Stencil:
    """Consistent Q1 mass-matrix stencil scaled to pair with the Laplacian.

    Returns ``h/6 [1 4 1]`` in 1D, ``h^2/36 [[1,4,1],[4,16,4],[1,4,1]]`` in
    2D, and ``h^2/216 [1 4 1]^(x3)``, a rank-one tensor of order 3, in 3D.
    ``[1 4 1]/6`` is the consistent mass; the lumped one would be diagonal.
    The 3D variant is normalised so the product with the 7-point Laplacian
    symbol stays dimensionless.
    """
    hf = Fraction(h)
    if dim == 1:
        return Stencil(1, _MASS_1D).scaled(hf)
    if dim == 2:
        base = tensor_product(Stencil(1, _MASS_1D), Stencil(1, _MASS_1D))
        return base.scaled(hf**2)
    if dim == 3:
        base = tensor_product(tensor_product(Stencil(1, _MASS_1D), Stencil(1, _MASS_1D)),
                              Stencil(1, _MASS_1D))
        return base.scaled(hf**2)
    raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def tensor_product(a: Stencil, b: Stencil) -> Stencil:
    """Outer product of stencils; symbols multiply accordingly."""
    entries = {}
    for oa, ca in a.entries.items():
        for ob, cb in b.entries.items():
            key = oa + ob
            prior = entries.get(key)
            term = ca * cb if not isinstance(ca, float) and not isinstance(cb, float) \
                else float(ca) * float(cb)
            entries[key] = term if prior is None else prior + term
    return Stencil(a.dim + b.dim, entries)


# ``hat * hat``: the 1D linear-interpolation hat ``[1/2 1 1/2]`` correlated with itself
_HAT_HAT = {-2: Fraction(1, 4), -1: Fraction(1), 0: Fraction(3, 2), 1: Fraction(1),
            2: Fraction(1, 4)}


def galerkin_stencil(a: Stencil) -> Stencil:
    """Stencil of the Galerkin coarse operator ``2**-dim P^T A P``.

    ``P`` is linear interpolation from the grid of spacing ``2h`` (coarse
    point ``J`` on fine point ``2J``) and ``A`` applies ``a``.  ``P`` is a
    tensor product of 1D hats, so the coarse entry at offset ``J`` is

        ``2**-dim sum_k a(k) prod_m H(2 J_m - k_m)``

    with ``H = [1/4 1 3/2 1 1/4]`` on offsets ``-2..2``, the hat correlated
    with itself.  Its symbol at ``2 theta`` is ``sum_k p_k^2 a~(theta_k)``
    over the harmonics of ``theta``, the coarse symbol the two-grid analysis
    uses.  The product over ``m`` is summed one axis at a time.  Exact
    coefficients stay exact; float ones give float sums.

    On a Dirichlet grid with ``n = 2**k - 1`` points every hat of ``P`` lies
    inside the box, so the stencil assembled on the coarse grid is the
    Galerkin matrix itself, entry for entry.
    """
    span = range(-((a.reach + 2) // 2), (a.reach + 2) // 2 + 1)
    coefs = a.entries
    for axis in range(a.dim):
        summed = {}
        for o, c in coefs.items():
            for j in span:
                weight = _HAT_HAT.get(2 * j - o[axis])
                if weight is not None:
                    key = o[:axis] + (j,) + o[axis + 1:]
                    summed[key] = summed.get(key, 0) + c * weight
        coefs = summed
    scale = Fraction(1, 2**a.dim)
    return Stencil(a.dim, {o: c * scale for o, c in coefs.items() if c != 0})


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


def _cross_entries(center, axis1, diag, axis2, dim):
    entries = {(0,) * dim: center}
    for axis in range(dim):
        for sign in (-1, 1):
            o = [0] * dim
            o[axis] = sign
            entries[tuple(o)] = axis1
            o = [0] * dim
            o[axis] = 2 * sign
            entries[tuple(o)] = axis2
    if dim == 2:
        for sx in (-1, 1):
            for sy in (-1, 1):
                entries[(sx, sy)] = diag
    return entries


def closed_form_stencil(layout: PatchLayout, h) -> Stencil:
    """Exact interior stencil of the additive Vanka operator.

    These are the translation-invariant rows the assembled operator takes
    away from the boundary (equivalently, everywhere on a periodic grid):

    * element 1D: ``h^2/6 [1 4 1]``
    * vertex 1D:  ``h^2/12 [1 4 10 4 1]``
    * element 2D: ``h^2/96 [[1 4 1] [4 28 4] [1 4 1]]``
    * vertex 2D:  ``h^2/240`` with centre 68, axis 8, diagonal 2, axis-2 1.
    """
    hh = Fraction(h) ** 2
    kind, dim = layout.kind, layout.dim
    if (kind, dim) == ("element", 1):
        entries = {(-1,): Fraction(1, 6), (0,): Fraction(4, 6), (1,): Fraction(1, 6)}
    elif (kind, dim) == ("vertex", 1):
        entries = {(-2,): Fraction(1, 12), (-1,): Fraction(4, 12), (0,): Fraction(10, 12),
                   (1,): Fraction(4, 12), (2,): Fraction(1, 12)}
    elif (kind, dim) == ("element", 2):
        line = ((-1, 1), (0, 4), (1, 1))
        entries = {(ox, oy): Fraction(cx * cy, 96) for ox, cx in line for oy, cy in line}
        entries[(0, 0)] = Fraction(28, 96)
    elif (kind, dim) == ("vertex", 2):
        entries = _cross_entries(Fraction(68, 240), Fraction(8, 240),
                                 Fraction(2, 240), Fraction(1, 240), 2)
    else:
        raise NotImplementedError(f"no closed form for {kind} patches in dim {dim}")
    return Stencil(dim, entries).scaled(hh)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def _rank_one_factors(stencil: Stencil):
    """Factor an exact stencil as an outer product of 1D lines, or return None.

    The line along axis ``k`` is the stencil restricted to the offsets that
    agree with a pivot entry ``p`` off axis ``k``; lines after the first are
    divided by ``p``.  The coefficient tensor is rank one exactly when every
    nonzero entry equals the product of its lines and the two supports have
    the same size.  The test runs in ``Fraction`` arithmetic, so stencils
    with float coefficients return None.

    Returns ``(scale, sweeps)``: ``sweeps`` holds ``(axis, line)`` pairs, each
    ``line`` a tuple of ``(offset, float coefficient)`` with offset 0 first.
    Each line is divided by its nearest off-centre coefficient, so the mass
    lines become ``[1 4 1]`` and their neighbours are added without a
    multiply or a temporary; an axis whose line is a lone centre coefficient
    is not swept.  ``scale`` is the product of everything divided out.
    """
    if any(isinstance(c, float) for c in stencil.entries.values()):
        return None
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


def _sweep(src: np.ndarray, dst: np.ndarray, axis: int, line, periodic: bool) -> None:
    """``dst = `` the 1D stencil ``line`` applied to ``src`` along ``axis``."""
    n = src.shape[axis]

    def cut(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    def add(d, s, c):
        dst[d] += src[s] if c == 1.0 else c * src[s]

    if line[0][0] == 0:
        np.multiply(src, line[0][1], out=dst)
        line = line[1:]
    else:
        dst.fill(0.0)
    for o, c in line:
        if periodic:
            s = o % n
            add(cut(0, n - s), cut(s, n), c)
            add(cut(n - s, n), cut(0, s), c)
        else:
            lo, hi = max(0, -o), n - max(0, o)
            if lo < hi:
                add(cut(lo, hi), cut(lo + o, hi + o), c)


def _apply_factored(factors, v: np.ndarray, periodic: bool) -> np.ndarray:
    """Apply ``_rank_one_factors`` output to the grid array ``v``, axis by axis."""
    scale, sweeps = factors
    if not sweeps:
        return scale * v
    out = np.empty_like(v)
    work = np.empty_like(v) if len(sweeps) > 1 else None
    # alternate the two buffers so that the last sweep writes ``out``
    dst = out if len(sweeps) % 2 else work
    src = v
    for axis, line in sweeps:
        _sweep(src, dst, axis, line, periodic)
        src, dst = dst, (work if dst is out else out)
    if scale != 1.0:
        out *= scale
    return out


def apply(stencil: Stencil, grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Apply a stencil to a flat grid function, honouring the boundary mode.

    Dirichlet mode treats out-of-range neighbours as zero; periodic mode
    wraps indices (oracle use).  The result is a new flat array; the input
    is never modified.

    A stencil with exact coefficients whose tensor is rank one (the mass
    stencils, the Jacobi scaling, any ``tensor_product`` of exact 1D lines)
    is applied one axis at a time: one 1D sweep per axis through two work
    buffers, 3 + 3 + 3 shifted terms for the 27-point 3D mass stencil
    instead of 27.  Both the truncated and the wrapped sum factor over the
    axes of the box grid, so the result equals the entry-by-entry sum up to
    rounding.  Every other stencil is applied entry by entry.
    """
    if stencil.dim != grid.dim:
        raise ValueError(f"stencil dim {stencil.dim} != grid dim {grid.dim}")
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.npoints,):
        raise ValueError(f"expected flat array of length {grid.npoints}, got shape {u.shape}")
    periodic = grid.boundary == "periodic"
    if periodic and grid.n <= 2 * stencil.reach:
        raise ValueError(f"periodic wrap needs n > {2 * stencil.reach}, got n={grid.n}")
    v = u.reshape(grid.shape)
    factors = stencil._axis_factors
    if factors is None:
        return _apply_entries(stencil, v, periodic).reshape(-1)
    return _apply_factored(factors, v, periodic).reshape(-1)


def _apply_entries(stencil: Stencil, v: np.ndarray, periodic: bool) -> np.ndarray:
    """Apply ``stencil`` to the grid array ``v`` one shifted term per entry."""
    out = np.zeros_like(v)
    if periodic:
        for offset, coef in stencil.entries.items():
            out += float(coef) * np.roll(v, tuple(-o for o in offset), axis=range(v.ndim))
        return out
    n = v.shape[0]
    for offset, coef in stencil.entries.items():
        dst, src = [], []
        for o in offset:
            lo, hi = max(0, -o), n - max(0, o)
            if lo >= hi:
                break
            dst.append(slice(lo, hi))
            src.append(slice(lo + o, hi + o))
        else:
            out[tuple(dst)] += float(coef) * v[tuple(src)]
    return out
