"""Stencil algebra, grid application and serialization."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from vankamg import (
    GridSpec,
    SmootherSpec,
    Stencil,
    apply,
    delta_stencil,
    laplacian_stencil,
    mass_stencil,
    restriction_stencil,
    symbol,
    tensor_product,
)
from vankamg import solver, stencils
from vankamg.lfa import exact_optimum
from vankamg.stencils import PatchLayout, closed_form_stencil


# ---------------------------------------------------------------------------
# exact coefficients
# ---------------------------------------------------------------------------

def test_laplacian_entries_exact():
    h = Fraction(1, 64)
    st = laplacian_stencil(2, h)
    assert st.entries == {
        (0, 0): Fraction(4 * 64**2),
        (1, 0): Fraction(-(64**2)),
        (-1, 0): Fraction(-(64**2)),
        (0, 1): Fraction(-(64**2)),
        (0, -1): Fraction(-(64**2)),
    }
    st3 = laplacian_stencil(3, 1)
    assert st3.entries[(0, 0, 0)] == 6
    assert len(st3.entries) == 7


def test_mass_entries_exact():
    h = Fraction(1, 8)
    assert mass_stencil(1, h).entries == {
        (-1,): h / 6, (0,): 4 * h / 6, (1,): h / 6}
    m2 = mass_stencil(2, h)
    assert m2.entries[(0, 0)] == Fraction(16, 36) * h**2
    assert m2.entries[(1, 1)] == Fraction(1, 36) * h**2
    assert m2.entries[(0, -1)] == Fraction(4, 36) * h**2
    assert len(m2.entries) == 9
    m3 = mass_stencil(3, h)
    # scaled by h^2 (not h^3) so the product with the Laplacian symbol is O(1)
    assert m3.entries[(0, 0, 0)] == Fraction(64, 216) * h**2
    assert m3.entries[(1, 1, 1)] == Fraction(1, 216) * h**2
    assert len(m3.entries) == 27


def test_delta_stencil_is_identity():
    grid = GridSpec(2, 5, 0.25)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.npoints)
    assert np.array_equal(apply(delta_stencil(2), grid, u), u)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_laplacian_symbol_values():
    for dim in (1, 2, 3):
        st = laplacian_stencil(dim, 1)
        assert abs(symbol(st, (np.pi,) * dim) - 4 * dim) < 1e-12
        assert abs(symbol(st, (0.0,) * dim)) < 1e-12
    assert abs(symbol(laplacian_stencil(1, 1), (np.pi / 2,)) - 2.0) < 1e-12


def test_mass_symbol_product_form():
    thetas = np.linspace(-np.pi, np.pi, 17)
    st1 = mass_stencil(1, 1)
    for t in thetas:
        assert abs(symbol(st1, (t,)) - (2 + np.cos(t)) / 3) < 1e-12
    st2 = mass_stencil(2, 1)
    for t1 in thetas[::4]:
        for t2 in thetas[::4]:
            want = (2 + np.cos(t1)) * (2 + np.cos(t2)) / 9
            assert abs(symbol(st2, (t1, t2)) - want) < 1e-12


def test_symbol_shapes_and_asymmetric_phase():
    shift = Stencil(1, {(1,): Fraction(1)})
    theta = np.linspace(-2, 2, 12).reshape(4, 3, 1)
    vals = symbol(shift, theta)
    assert vals.shape == (4, 3)
    assert np.allclose(vals, np.exp(1j * theta[..., 0]), atol=1e-14)


@pytest.mark.parametrize("stencil", [
    laplacian_stencil(3, 1), mass_stencil(2, 1),
    closed_form_stencil(PatchLayout("vertex", 2), 1),
    Stencil(1, {(0,): Fraction(1), (1,): Fraction(1)}),
    Stencil(2, {(0, 0): 1.5, (1, -1): -0.25, (-1, 1): -0.25, (2, 0): 0.5}),
], ids=["laplacian3", "mass2", "vanka-v2", "one-sided", "float-one-sided"])
def test_symbol_skips_the_sine_half_of_symmetric_stencils(monkeypatch, stencil):
    theta = np.random.default_rng(5).uniform(-np.pi, np.pi, (40, stencil.dim))
    offsets, coefs = stencil._arrays
    phase = theta @ offsets.T
    real, imag = np.cos(phase) @ coefs, np.sin(phase) @ coefs
    sines = []
    numpy_sin = np.sin
    monkeypatch.setattr(np, "sin", lambda x: sines.append(x) or numpy_sin(x))
    values = symbol(stencil, theta)
    assert values.dtype == complex
    assert np.array_equal(values.real, real)
    if stencil.is_symmetric:
        assert not sines and not values.imag.any()
        assert np.abs(imag).max() < 1e-14
    else:
        assert np.array_equal(values.imag, imag)


def test_symmetry_is_detected_once_per_stencil():
    st = Stencil(2, {(0, 0): Fraction(4), (1, 0): Fraction(-1), (-1, 0): Fraction(-1)})
    assert "is_symmetric" not in vars(st)
    symbol(st, (0.3, 0.1))
    assert vars(st)["is_symmetric"] is True


def test_tensor_product_symbol_factorises():
    a = Stencil(1, {(-1,): Fraction(1, 3), (0,): Fraction(1, 2), (2,): Fraction(1, 5)})
    b = Stencil(1, {(0,): Fraction(2, 7), (1,): Fraction(-1, 4)})
    ab = tensor_product(a, b)
    assert ab.dim == 2
    for t1 in (-2.0, 0.3, 1.7):
        for t2 in (-0.9, 0.0, 2.4):
            want = symbol(a, (t1,)) * symbol(b, (t2,))
            assert abs(symbol(ab, (t1, t2)) - want) < 1e-12


def test_tensor_product_builds_2d_mass():
    one_d = mass_stencil(1, 1)
    h = Fraction(1, 4)
    assert tensor_product(one_d, one_d).scaled(h**2) == mass_stencil(2, h)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_restriction_stencil_is_full_weighting(dim):
    st = restriction_stencil(dim)
    assert st is restriction_stencil(dim)  # memoised: symbol caches key by identity
    line = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    assert len(st.entries) == 3**dim
    for offset, coef in st.entries.items():
        assert coef == np.prod([line[o] for o in offset])
    assert sum(st.entries.values()) == 1


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim, n", [(2, 7.0), (2.0, 7)])
def test_grid_spec_refuses_float_fields(dim, n):
    # GridSpec(2, 7.0, 1/8) had 49.0 points
    with pytest.raises(TypeError):
        GridSpec(dim, n, 1 / 8)


def test_grid_spec_accepts_numpy_integers():
    grid = GridSpec(np.int64(2), np.int32(7), 1 / 8)
    assert type(grid.npoints) is int and grid == GridSpec(2, 7, 1 / 8)


def test_apply_dirichlet_truncates():
    grid = GridSpec(1, 5, 1.0)
    out = apply(laplacian_stencil(1, 1), grid, np.ones(5))
    assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0, 1.0])


def test_apply_periodic_wraps():
    grid = GridSpec(1, 5, 1.0, boundary="periodic")
    e0 = np.zeros(5)
    e0[0] = 1.0
    out = apply(laplacian_stencil(1, 1), grid, e0)
    assert np.array_equal(out, [2.0, -1.0, 0.0, 0.0, -1.0])


def test_apply_delta_recovers_stencil_row():
    grid = GridSpec(2, 5, 1.0)
    e = np.zeros(grid.npoints)
    center = grid.ravel_index((2, 2))
    e[center] = 1.0
    out = apply(laplacian_stencil(2, 1), grid, e)
    want = np.zeros(grid.npoints)
    for offset, coef in laplacian_stencil(2, 1).entries.items():
        want[grid.ravel_index((2 + offset[0], 2 + offset[1]))] = float(coef)
    assert np.array_equal(out, want)


def test_apply_second_difference_convergence():
    # A_h sin(pi x) = (2 - 2 cos(pi h))/h^2 sin(pi x), off pi^2 by O(h^2)
    errs = []
    for n in (31, 63):
        h = 1.0 / (n + 1)
        x = np.arange(1, n + 1) * h
        u = np.sin(np.pi * x)
        res = apply(laplacian_stencil(1, Fraction(1, n + 1)), GridSpec(1, n, h), u)
        errs.append(np.max(np.abs(res - np.pi**2 * u)))
    assert errs[0] < 0.01
    assert errs[1] < errs[0] / 3.5


def test_apply_linearity():
    grid = GridSpec(2, 8, 0.125, boundary="periodic")
    rng = np.random.default_rng(11)
    u, w = rng.standard_normal((2, grid.npoints))
    st = mass_stencil(2, 0.125)
    lhs = apply(st, grid, 2.5 * u - 0.75 * w)
    rhs = 2.5 * apply(st, grid, u) - 0.75 * apply(st, grid, w)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_apply_periodic_reach_guard():
    wide = Stencil(1, {(-2,): Fraction(1), (0,): Fraction(1), (2,): Fraction(1)})
    assert wide.reach == 2
    grid = GridSpec(1, 4, 1.0, boundary="periodic")
    with pytest.raises(ValueError, match="periodic wrap"):
        apply(wide, grid, np.zeros(4))
    apply(wide, GridSpec(1, 5, 1.0, boundary="periodic"), np.zeros(5))


def test_apply_validates_shapes():
    grid = GridSpec(1, 5, 1.0)
    with pytest.raises(ValueError, match="flat array"):
        apply(laplacian_stencil(1, 1), grid, np.zeros(6))
    with pytest.raises(ValueError, match="dim"):
        apply(laplacian_stencil(2, 1), grid, np.zeros(5))


# ---------------------------------------------------------------------------
# axis-by-axis application of rank-one stencils
# ---------------------------------------------------------------------------

def _line(entries):
    return Stencil(1, {(o,): Fraction(c) for o, c in entries.items()})


_ASYM_A = _line({-1: Fraction(1, 3), 0: Fraction(1, 2), 1: Fraction(1, 5)})
_ASYM_B = _line({0: Fraction(2, 7), 1: Fraction(-1, 4)})
_NO_CENTRE = _line({-1: 3, 1: -1})

def _float_copy(st):
    return Stencil(st.dim, {o: float(c) for o, c in st.entries.items()})


RANK_ONE = {
    "mass1": mass_stencil(1, Fraction(1, 8)),
    "mass2": mass_stencil(2, Fraction(1, 8)),
    "mass3": mass_stencil(3, Fraction(1, 8)),
    "unequal2": tensor_product(_line({-1: -1, 0: 2, 1: -1}), mass_stencil(1, 1)),
    "unequal3": tensor_product(tensor_product(mass_stencil(1, 1), _ASYM_B),
                               _line({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)})),
    "asym2": tensor_product(_ASYM_A, _ASYM_B),
    "asym3": tensor_product(tensor_product(_ASYM_A, _ASYM_B), _NO_CENTRE),
    "reach2": tensor_product(_line({-2: Fraction(1, 3), 0: 1, 1: Fraction(1, 5)}),
                             _line({0: Fraction(2, 7), 2: Fraction(-1, 4)})),
    "shift2": tensor_product(mass_stencil(1, 1), _line({1: Fraction(2, 3)})),
    "jacobi3": delta_stencil(3).scaled(Fraction(1, 6)),
    # dyadic floats convert exactly, so the copy is the exact rank-one stencil
    "float-restriction3": _float_copy(restriction_stencil(3)),
}


NOT_RANK_ONE = {
    "laplacian3": laplacian_stencil(3, 1),
    "vanka-e2": closed_form_stencil(PatchLayout("element", 2), Fraction(1, 8)),
    "vanka-v2": closed_form_stencil(PatchLayout("vertex", 2), Fraction(1, 8)),
    "same-support-2x2": Stencil(2, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 5}),
    "diagonal-pair": Stencil(2, {(0, 0): 1, (1, 1): 1}),
    "box-count-match": Stencil(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (2, 2): 1}),
    "non-separable3": Stencil(3, {(0, 0, 0): 2, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                                  (1, 1, 1): 1}),
}


def _entry_by_entry(stencil, grid, u):
    """The reference sum: ``stencil`` applied to ``u`` one shifted term per entry.

    Dirichlet grids cut each shifted term at the box, periodic ones
    ``np.roll`` it; the terms are added into zeros in entry order.
    """
    v = u.reshape(grid.shape)
    out = np.zeros_like(v)
    if grid.boundary == "periodic":
        for offset, coef in stencil.entries.items():
            out += float(coef) * np.roll(v, tuple(-o for o in offset), axis=range(v.ndim))
        return out.reshape(-1)
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
    return out.reshape(-1)


def _grids(st):
    # the smallest grid the stencil allows (periodic wrap needs n > 2 reach)
    # and one with a wide interior
    small = max(3, 2 * st.reach + 1)
    yield GridSpec(st.dim, small, 1.0)
    yield GridSpec(st.dim, 15, 1.0)
    yield GridSpec(st.dim, small, 1.0, boundary="periodic")
    yield GridSpec(st.dim, 16, 1.0, boundary="periodic")


@pytest.mark.parametrize("name", sorted(RANK_ONE))
def test_rank_one_stencils_apply_axis_by_axis(name):
    st = RANK_ONE[name]
    assert st._axis_factors is not None
    rng = np.random.default_rng(21)
    for grid in _grids(st):
        u = rng.standard_normal(grid.npoints)
        got, want = apply(st, grid, u), _entry_by_entry(st, grid, u)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want), (name, grid)


@pytest.mark.parametrize("name", sorted(NOT_RANK_ONE))
def test_other_stencils_apply_entry_by_entry(name):
    st = NOT_RANK_ONE[name]
    assert st._axis_factors is None
    # one term per entry added in entry order: the entry-by-entry sum bit for
    # bit, signed zeros and infinities (and the NaNs of inf - inf) included
    rng = np.random.default_rng(22)
    for grid in _grids(st):
        u = rng.standard_normal(grid.npoints)
        infs = np.where(rng.random(grid.npoints) < 0.2, np.sign(u) * np.inf, u)
        for x in (u, np.where(rng.random(grid.npoints) < 0.9, -0.0, u), infs):
            with np.errstate(invalid="ignore"):
                got, want = apply(st, grid, x), _entry_by_entry(st, grid, x)
            assert got.tobytes() == want.tobytes(), (name, grid)


def test_rank_one_detection_ignores_explicit_zeros():
    entries = dict(mass_stencil(2, 1).entries)
    entries[(2, 0)] = Fraction(0)
    padded = Stencil(2, entries)
    assert padded._axis_factors == mass_stencil(2, 1)._axis_factors
    assert Stencil(2, {(0, 0): Fraction(0)})._axis_factors is None


def test_rank_one_detection_runs_once_per_stencil(monkeypatch):
    calls = []
    detect = stencils._rank_one_factors

    def counting(st):
        calls.append(st)
        return detect(st)

    monkeypatch.setattr(stencils, "_rank_one_factors", counting)
    st = tensor_product(_ASYM_A, _ASYM_B)
    grid = GridSpec(2, 9, 1.0)
    for _ in range(3):
        apply(st, grid, np.ones(grid.npoints))
    assert calls == [st]


@pytest.mark.parametrize("kind, dim", [("mass", 2), ("mass3d", 3)])
def test_mass_smoother_takes_the_axis_route(monkeypatch, kind, dim):
    sweeps = []
    factored = stencils._apply_factored

    def counting(factors, v):
        sweeps.append(len(factors[1]))
        return factored(factors, v)

    monkeypatch.setattr(stencils, "_apply_factored", counting)
    spec = SmootherSpec(kind, dim, float(exact_optimum(kind, dim)[0]))
    grid = GridSpec(dim, 15, 1 / 16)
    m_apply = solver._smoother_applicator(spec, grid, None)
    r = np.random.default_rng(23).standard_normal(grid.npoints)
    got = m_apply(r)
    assert sweeps == [dim]
    want = _entry_by_entry(spec.m_stencil(grid.h), grid, r)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# slabs of axis-0 planes
# ---------------------------------------------------------------------------

def _sliced_reference(st, grid, u):
    """The axis-by-axis sum on the whole grid, one sliced add per term and axis."""
    scale, sweeps = st._axis_factors
    src = u.reshape(grid.shape)
    for axis, line in sweeps:
        centre = line[0][0] == 0
        dst = src * line[0][1] if centre else np.zeros_like(src)
        for o, c in line[centre:]:
            lo, hi = max(0, -o), grid.n - max(0, o)
            if lo < hi:
                d = (slice(None),) * axis + (slice(lo, hi),)
                s = (slice(None),) * axis + (slice(lo + o, hi + o),)
                dst[d] += src[s] if c == 1.0 else c * src[s]
        src = dst
    return (src * scale if scale != 1.0 else src).reshape(-1)


_REACH2 = _line({-2: 1, -1: 4, 0: 10, 1: 4, 2: 1})
SLAB_STENCILS = {
    **RANK_ONE,
    "reach2-power2": tensor_product(_REACH2, _REACH2),
    "reach2-power3": tensor_product(tensor_product(_REACH2, _REACH2), _REACH2),
    "axis0-only2": tensor_product(_ASYM_A, delta_stencil(1)),
    "axis0-only3": tensor_product(_REACH2, delta_stencil(2)),
    "no-axis0-3": tensor_product(delta_stencil(1), tensor_product(_ASYM_A, _REACH2)),
}


@pytest.mark.parametrize("slab", [100, 500])
@pytest.mark.parametrize("name", sorted(SLAB_STENCILS))
def test_plane_slabs_change_no_byte(monkeypatch, name, slab):
    # slabs of one plane (3D at 100), of several planes with a partial last
    # one, and of part of the 1D line; signed zeros keep their sign
    st = SLAB_STENCILS[name]
    grid = GridSpec(st.dim, {1: 1023, 2: 31, 3: 15}[st.dim], 1.0)
    assert grid.npoints > slab
    rng = np.random.default_rng(slab)
    u = rng.standard_normal(grid.npoints)
    inputs = (u, np.where(rng.random(grid.npoints) < 0.9, -0.0, u))
    whole = [apply(st, grid, x) for x in inputs]
    monkeypatch.setattr(stencils, "SLAB_ROWS", slab)
    for x, want in zip(inputs, whole):
        got = apply(st, grid, x)
        assert got.tobytes() == want.tobytes() == _sliced_reference(st, grid, x).tobytes()


# +-inf ends every row (no stencil below adds the two ends of one row), and
# a = 6.5e306 sums to 24 a at the mass2 row ends, 30 a across one
@pytest.mark.parametrize("slab", [None, 100])
@pytest.mark.parametrize("name, first, last", [
    *((name, -np.inf, np.inf) for name in ("mass2", "mass3", "reach2-power2", "reach2-power3")),
    ("mass2", 6.5e306, 6.5e306),
])
def test_plane_slabs_raise_no_flag_across_row_ends(monkeypatch, name, first, last, slab):
    # no add sums across a row end, in slabs as on the whole grid
    st = SLAB_STENCILS[name]
    grid = GridSpec(st.dim, {2: 31, 3: 15}[st.dim], 1.0)
    if slab is not None:
        monkeypatch.setattr(stencils, "SLAB_ROWS", slab)
    u = np.random.default_rng(0).standard_normal(grid.shape)
    u[..., 0], u[..., -1] = first, last
    u = u.reshape(-1)
    with np.errstate(over="raise", invalid="raise"):
        got = apply(st, grid, u)
        want = _sliced_reference(st, grid, u)
    assert got.tobytes() == want.tobytes()


def test_stencil_entries_are_read_only_and_pickle():
    st = mass_stencil(2, Fraction(1, 8))
    with pytest.raises(TypeError):
        st.entries[(0, 0)] = Fraction(1)
    back = pickle.loads(pickle.dumps(st))
    assert back == st and back._axis_factors == st._axis_factors


def test_exact_stencil_constructors_are_memoised():
    assert laplacian_stencil(3, Fraction(1, 64)) is laplacian_stencil(3, Fraction(1, 64))
    spec = SmootherSpec("mass3d", 3, 1.0)
    assert spec.m_stencil(1 / 32) is spec.m_stencil(1 / 32)
    assert laplacian_stencil(2, Fraction(1, 10)) != laplacian_stencil(2, 0.1)


# ---------------------------------------------------------------------------
# algebra, queries, serialization
# ---------------------------------------------------------------------------

def test_scaled_and_plus():
    d = delta_stencil(1)
    assert d.scaled(2).plus(d) == d.scaled(3)
    cancelled = d.scaled(2).plus(d.scaled(-2))
    assert cancelled.entries == {(0,): Fraction(0)}


def test_symmetry_flag():
    assert laplacian_stencil(3, 1).is_symmetric
    assert mass_stencil(2, 1).is_symmetric
    assert not Stencil(1, {(0,): Fraction(1), (1,): Fraction(1)}).is_symmetric


def test_json_roundtrip_exact():
    # 0.1 is not dyadic: its exact value survives as a ratio of integers
    st = Stencil(2, {(0, 0): Fraction(1, 3), (1, -2): 0.125, (-1, 0): Fraction(-7, 5),
                     (0, 1): 0.1})
    back = Stencil.from_json(st.to_json())
    assert back == st
    assert all(isinstance(c, Fraction) for c in back.entries.values())
    assert back.entries[(0, 1)] == Fraction(0.1) != Fraction(1, 10)
    assert back.to_json() == st.to_json()


@pytest.mark.parametrize("coef", ["Infinity", "-Infinity", "NaN"])
def test_json_non_finite_number_is_a_value_error(coef):
    text = '{"dim":1,"entries":[{"offset":[0],"coef":%s}]}' % coef
    with pytest.raises(ValueError, match="finite"):
        Stencil.from_json(text)


def test_json_numbers_convert_like_constructor_arguments():
    st = Stencil.from_json('{"dim":1,"entries":[{"offset":[0],"coef":0.1},'
                           '{"offset":[1],"coef":-3},{"offset":[2],"coef":"2/7"}]}')
    assert st == Stencil(1, {(0,): 0.1, (1,): -3, (2,): Fraction(2, 7)})


def test_float_coefficients_convert_exactly():
    floats = [0.125, 0.1, -1e-300, 1e300, 5e-324, 2.0**60 + 2.0**8]
    st = Stencil(1, {(o,): c for o, c in enumerate(floats)})
    for (o,), coef in st.entries.items():
        assert isinstance(coef, Fraction) and coef == Fraction(floats[o])
        assert float(coef) == floats[o]
    assert np.array_equal(st._arrays[1], floats)
    assert delta_stencil(1).scaled(0.5) == delta_stencil(1).scaled(Fraction(1, 2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Stencil(1, {(0,): 1, (1,): bad})
    with pytest.raises(ValueError, match="finite"):
        delta_stencil(2).scaled(bad)


def test_gridspec_validation():
    with pytest.raises(ValueError, match="at least 3"):
        GridSpec(1, 2, 1.0)
    with pytest.raises(ValueError, match="dim"):
        GridSpec(4, 5, 1.0)
    with pytest.raises(ValueError, match="spacing"):
        GridSpec(1, 5, 0.0)
    with pytest.raises(ValueError, match="boundary"):
        GridSpec(1, 5, 1.0, boundary="neumann")


def test_gridspec_ravel_index():
    grid = GridSpec(2, 5, 0.2)
    assert grid.ravel_index((1, 2)) == 7
    assert grid.shape == (5, 5)
    assert grid.npoints == 25


def test_stencil_validation():
    with pytest.raises(ValueError, match="at least one entry"):
        Stencil(1, {})
    with pytest.raises(ValueError, match="offset"):
        Stencil(2, {(1,): Fraction(1)})
    with pytest.raises(TypeError, match="coefficient"):
        Stencil(1, {(0,): "nope"})
    for dim in (0, 4):
        with pytest.raises(ValueError, match="dim"):
            mass_stencil(dim, 1)
        with pytest.raises(ValueError, match="dim"):
            restriction_stencil(dim)
