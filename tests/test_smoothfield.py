"""Smooth involution fields, ordered products and plane sections."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenets import cli, smoothfield
from balancenets.config import TAU_NUM
from balancenets.errors import (
    DegeneratePlaneError,
    FieldDomainError,
    NonPotentialError,
    ParityError,
    ValidationError,
)
from balancenets.cli import _FIELD_BUILDERS
from balancenets.involution import InvolutionMatrix
from balancenets.network import RelationGraph, load_network
from balancenets.smoothfield import (
    _BLOCK,
    EdgeQuadratureRule,
    GraphEmbedding,
    InvolutionField,
    ParameterizedCurve,
    PlaneCoefficients,
    ResidualReport,
    convergence_report,
    discretize,
    infinitesimal_residual,
    load_embedding,
    p_integral,
    plane_section_solution,
    pointwise,
    project_point_to_section,
    project_to_plane,
    residual_orders,
    solve_ode_field,
    valid_parity_assignment,
)

WAVE = InvolutionField.from_parameter(
    lambda x, y: pointwise(math.sin, x) + y * y, "elliptic", name="wave"
)

TWISTED = InvolutionField.from_components(
    lambda x, y: x * y,
    lambda x, y: math.sqrt(1.0 - (x * y) ** 2),
    lambda x, y: math.sqrt(1.0 - (x * y) ** 2),
    name="twisted",
)


def test_field_domain_and_constraint_checks():
    with pytest.raises(ValidationError):
        InvolutionField(lambda x, y: (1.0, 0.0, 0.0), domain=((0, 0), (0, 1)))
    with pytest.raises(FieldDomainError):
        WAVE(1.5, 0.5)
    assert WAVE.contains(0.5, 0.5, margin=0.1)
    assert not WAVE.contains(0.95, 0.5, margin=0.1)
    broken = InvolutionField(lambda x, y: (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        broken(0.5, 0.5)


def test_canonical_parameter_fields():
    inv = WAVE(0.0, 0.5)
    assert inv.a == pytest.approx(math.cos(0.25))
    assert inv.b == inv.c == pytest.approx(math.sin(0.25))
    hyp = InvolutionField.from_parameter(lambda x, y: x, "hyperbolic")
    inv = hyp(0.6, 0.1)
    assert inv.a == pytest.approx(math.cosh(0.6))
    assert inv.b == pytest.approx(math.sinh(0.6))
    assert inv.c == pytest.approx(-math.sinh(0.6))
    with pytest.raises(ValidationError):
        InvolutionField.from_parameter(lambda x, y: x, "parabolic")

    # Each sample computes sin (sinh) once; the entries keep their bits.
    t_func = lambda x, y: pointwise(math.sin, x) + y * y  # noqa: E731
    ell = InvolutionField.from_parameter(t_func, "elliptic")
    hyp = InvolutionField.from_parameter(t_func, "hyperbolic")
    for x, y in ((0.0, 0.0), (0.13, 0.71), (0.5, 0.5), (0.97, 0.02)):
        t = math.sin(x) + y * y
        assert ell.evaluator(x, y) == (math.cos(t), math.sin(t), math.sin(t))
        assert hyp.evaluator(x, y) == (math.cosh(t), math.sinh(t), -math.sinh(t))


# The scalar math closures the built-in fields had before they were defined
# in array form: the oracle for their components and evaluator.
def _elliptic(t):
    s = math.sin(t)
    return (math.cos(t), s, s)


def _hyperbolic(t):
    s = math.sinh(t)
    return (math.cosh(t), s, -s)


SCALAR_FIELDS = {
    "elliptic": lambda x, y: _elliptic(x + y),
    "elliptic-wave": lambda x, y: _elliptic(math.sin(x) + y * y),
    "hyperbolic": lambda x, y: _hyperbolic(x + y),
}
BUILT_IN = tuple(SCALAR_FIELDS)

_unit = st.floats(0.0, 1.0)
_wide = st.floats(-2.0, 2.0)
_points = st.lists(
    st.tuples(_unit, _unit)
    | st.tuples(_wide, _wide)
    | st.floats(-4.0, 4.0).map(lambda t: (t, 0.0)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BUILT_IN), _points)
def test_built_in_fields_match_the_scalar_closures_bit_for_bit(name, points):
    # Points of the domain, and t = x + y over [-4, 4] off it.
    field = _FIELD_BUILDERS[name]()
    want = np.array([SCALAR_FIELDS[name](x, y) for x, y in points])
    xs, ys = np.array(points).T
    got = field.components(xs, ys)
    assert all(v.dtype == np.float64 for v in got)
    assert np.stack(got, axis=1).tobytes() == want.tobytes()
    scalar = [field.evaluator(x, y) for x, y in points]
    assert all(type(v) is float for row in scalar for v in row)
    assert np.array(scalar).tobytes() == want.tobytes()


def test_complex_potential_field():
    field = InvolutionField.from_complex_potential(lambda x, y: 0.5 * x)
    inv = field(0.8, 0.3)
    assert inv.b == inv.c == pytest.approx(0.4)
    assert inv.a == pytest.approx(math.sqrt(1.0 - 0.16))
    big = InvolutionField.from_complex_potential(lambda x, y: 2.0 * x)
    with pytest.raises(FieldDomainError):
        big(0.9, 0.5)


def test_parameterized_curves():
    line = ParameterizedCurve.line((0.0, 0.0), (1.0, 2.0))
    assert line.point(0.5) == (0.5, 1.0)
    assert line.reversed().start == line.end
    assert not line.is_closed()

    poly = ParameterizedCurve.polyline([(0, 0), (1, 0), (1, 1)])
    assert poly.point(0.25) == (0.5, 0.0)
    assert poly.point(0.75) == (1.0, 0.5)
    with pytest.raises(ValidationError):
        ParameterizedCurve.polyline([(0, 0)])

    loop = ParameterizedCurve.concat([line, ParameterizedCurve.line((1, 2), (0, 0))])
    assert loop.is_closed()
    assert loop.point(1.5) == (0.5, 1.0)
    with pytest.raises(ValidationError):
        ParameterizedCurve.concat([line, line])
    with pytest.raises(ValidationError):
        ParameterizedCurve.concat([])
    with pytest.raises(ValidationError):
        ParameterizedCurve(lambda s: (s, s), 1.0, 1.0)

    # -0.0 keeps its sign through the clamp, as min(max(s, 0.0), 1.0) keeps it.
    corner = ParameterizedCurve.polyline([(-0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    assert math.copysign(1.0, corner.point(-0.0)[0]) == -1.0


# Scalar closures for each curve kind: an oracle for ParameterizedCurve.points
# that shares no code with it.
def _line_fn(p, q):
    return lambda s: (p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1]))


def _polyline_fn(pts):
    count = len(pts) - 1

    def fn(s):
        u = min(max(s, 0.0), 1.0) * count
        k = min(int(u), count - 1)
        frac = u - k
        p, q = pts[k], pts[k + 1]
        return (p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1]))

    return fn


def _concat_fn(pieces):
    def fn(s):
        k = min(int(s), len(pieces) - 1)
        seg_fn, s0, s1 = pieces[k]
        frac = s - k
        return seg_fn(s0 + frac * (s1 - s0))

    return fn


def _reversed_fn(fn, s0, s1):
    return lambda s: fn(s0 + s1 - s)


_coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_xy = st.tuples(_coord, _coord)


@st.composite
def _piece(draw, start):
    """A line, a polyline of up to 5 legs or a scalar-fn line on [0.1, 0.7]
    from start, maybe reversed: (curve, oracle, s0, s1, end, corners)."""
    pts = [start] + draw(st.lists(_xy, min_size=1, max_size=5))
    kind = draw(st.sampled_from(["line", "scalar", "polyline"])) if len(pts) == 2 else ""

    def build(ps):
        if kind == "line":
            return ParameterizedCurve.line(*ps), _line_fn(*ps), 0.0, 1.0
        if kind == "scalar":
            fn = lambda s, g=_line_fn(*ps): g((s - 0.1) / 0.6)  # noqa: E731
            return ParameterizedCurve(fn, 0.1, 0.7), fn, 0.1, 0.7
        return ParameterizedCurve.polyline(ps), _polyline_fn(ps), 0.0, 1.0

    curve, fn, s0, s1 = build(pts)
    corners = [s0 + (s1 - s0) * k / (len(pts) - 1) for k in range(len(pts))]
    if draw(st.booleans()):
        # Reversing the curve through the reversed points runs it from start.
        curve, fn, s0, s1 = build(pts[::-1])
        curve, fn = curve.reversed(), _reversed_fn(fn, s0, s1)
        corners = [s0 + s1 - c for c in corners]
    return curve, fn, s0, s1, pts[-1], corners


@st.composite
def _curves(draw):
    """A piece, or a concat of 2 or 3 chained pieces, maybe reversed:
    (curve, oracle, s0, s1, parameters to probe)."""
    pieces = [draw(_piece(draw(_xy)))]
    for _ in range(draw(st.integers(0, 2))):
        pieces.append(draw(_piece(pieces[-1][4])))
    if len(pieces) == 1:
        curve, fn, s0, s1, _, corners = pieces[0]
    else:
        curve = ParameterizedCurve.concat([piece[0] for piece in pieces])
        fn = _concat_fn([piece[1:4] for piece in pieces])
        s0, s1 = 0.0, float(len(pieces))
        corners = [
            j + (c - a) / (b - a)
            for j, (_, _, a, b, _, cs) in enumerate(pieces)
            for c in cs
        ]
    if draw(st.booleans()):
        curve, fn = curve.reversed(), _reversed_fn(fn, s0, s1)
        corners = [s0 + s1 - c for c in corners]
    return curve, fn, s0, s1, [s0, s1, -0.0, *corners]


@settings(max_examples=300, deadline=None)
@given(_curves(), st.data())
def test_curve_points_match_the_scalar_closures_bit_for_bit(spec, data):
    curve, fn, s0, s1, probes = spec
    assert (curve.s0, curve.s1) == (s0, s1)
    s = probes + data.draw(st.lists(st.floats(s0, s1), max_size=20))
    want = np.array([tuple(map(float, fn(v))) for v in s])
    xs, ys = curve.points(np.array(s))
    assert xs.dtype == ys.dtype == np.float64
    assert np.stack([xs, ys], axis=1).tobytes() == want.tobytes()
    assert np.array([curve.point(v) for v in s]).tobytes() == want.tobytes()


def test_quadrature_rule_parity():
    assert EdgeQuadratureRule("even", 64).refined().steps == 128
    assert EdgeQuadratureRule("odd", 63).refined().steps == 127
    with pytest.raises(ParityError):
        EdgeQuadratureRule("even", 63)
    with pytest.raises(ParityError):
        EdgeQuadratureRule("odd", 64)
    with pytest.raises(ValidationError):
        EdgeQuadratureRule("even", 0)
    with pytest.raises(ValidationError):
        EdgeQuadratureRule("sideways", 64)


def test_ordered_product_parity_law_and_reversal():
    curve = ParameterizedCurve.line((0.1, 0.2), (0.8, 0.7))
    even = p_integral(WAVE, curve, 64, "even")
    odd = p_integral(WAVE, curve, 63, "odd")
    assert np.linalg.det(even) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(odd) == pytest.approx(-1.0, abs=1e-12)

    back = p_integral(WAVE, curve.reversed(), 64, "even")
    assert np.abs(even @ back - np.eye(2)).max() < 1e-12

    # A constant field makes the products exact: identity for even counts,
    # the matrix itself for odd ones.
    inv = InvolutionMatrix(0.5, 1.5, 0.5)
    const = InvolutionField.constant(inv)
    assert np.array_equal(p_integral(const, curve, 64, "even"), np.eye(2))
    assert np.abs(p_integral(const, curve, 63, "odd") - inv.matrix).max() < 1e-12


def _product(x, y):
    """x @ y for 2x2 arrays: each entry x[i, 0]*y[0, j] + x[i, 1]*y[1, j] in
    that order, one rounding per multiply and per add."""
    return np.array([[x[i, 0] * y[0, j] + x[i, 1] * y[1, j] for j in (0, 1)] for i in (0, 1)])


def _p_integral_oracle(field, curve, n, parity):
    """The step-by-step fold from the identity: one checked InvolutionMatrix
    per step."""
    rule = EdgeQuadratureRule(parity, n)
    h = (curve.s1 - curve.s0) / rule.steps
    acc = np.eye(2)
    for i in range(rule.steps):
        x, y = curve.point(curve.s0 + (i + 0.5) * h)
        acc = _product(acc, field(x, y).matrix)
    return acc


# Real samples where y <= 0.5 and complex ones above, so a block can hold
# both and the product turns complex part way along the curve.
HALF_COMPLEX = InvolutionField.from_complex_potential(
    lambda x, y: complex(0.4 * x, 0.3 * (y - 0.5)) if y > 0.5 else 0.5 * x,
    name="half-complex",
)

_LINE = ParameterizedCurve.line((0.1, 0.2), (0.8, 0.7))
_TWO_LEG = ParameterizedCurve.polyline([(0.1, 0.1), (0.9, 0.3), (0.4, 0.9)])
ORACLE_CURVES = [
    _LINE,
    _TWO_LEG,
    ParameterizedCurve.polyline(
        [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8), (0.2, 0.2)]
    ),
    _TWO_LEG.reversed(),
    ParameterizedCurve.concat([_LINE, ParameterizedCurve.line((0.8, 0.7), (0.3, 0.9))]),
    # A scalar-only fn, sampled point by point; it crosses y = 0.5.
    ParameterizedCurve(
        lambda s: (0.5 + 0.35 * math.cos(s), 0.5 + 0.35 * math.sin(s)), 0.0, 5.0
    ),
]


@pytest.mark.parametrize(
    "field",
    [_FIELD_BUILDERS[name]() for name in ("elliptic", "elliptic-wave", "hyperbolic")]
    + [HALF_COMPLEX],
    ids=["elliptic", "elliptic-wave", "hyperbolic", "half-complex"],
)
def test_p_integral_matches_step_by_step_oracle_bit_for_bit(field):
    for curve in ORACLE_CURVES:
        for n in (2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
            parity = "even" if n % 2 == 0 else "odd"
            got = p_integral(field, curve, n, parity)
            want = _p_integral_oracle(field, curve, n, parity)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert p_integral(field, _LINE, 64, "even").dtype == (
        complex if field is HALF_COMPLEX else float
    )


def test_the_fold_starts_from_the_identity():
    # Both samples lie on the quadric. Folded from the first sample, p would
    # be -0.0*1 + 1*-0.0 = -0.0; from the identity, the first step makes p
    # 1*-0.0 + 0*1 = +0.0, and then +0.0*1 + 1*-0.0 = +0.0.
    field = InvolutionField(lambda x, y: (-0.0, 1.0, 1.0) if x < 0.5 else (1.0, 5.0, -0.0))
    line = ParameterizedCurve.line((0.25, 0.5), (0.75, 0.5))
    got = p_integral(field, line, 2, "even")
    assert got.tobytes() == _p_integral_oracle(field, line, 2, "even").tobytes()
    assert math.copysign(1.0, got[0, 0]) == 1.0


def _failure(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def _valid_up_to(x_max):
    """Valid samples (a = 1, bc = 0) up to x_max; beyond, bc is off by x."""
    return InvolutionField(lambda x, y: (1.0, 0.0, 0.0) if x <= x_max else (1.0, x, 1.0))


# At 3 * _BLOCK steps the first failure and the exit fall in the second block.
@pytest.mark.parametrize("n,x_max", [(64, 0.3), (3 * _BLOCK, 0.7)])
def test_p_integral_reports_a_bc_violation_before_a_later_domain_exit(n, x_max):
    # Violations from x = x_max on; the curve leaves the domain at x = 1.
    curve = ParameterizedCurve.line((0.1, 0.5), (1.5, 0.5))
    failure = _failure(p_integral, _valid_up_to(x_max), curve, n, "even")
    assert failure == _failure(_p_integral_oracle, _valid_up_to(x_max), curve, n, "even")
    assert failure[0] is ValidationError
    assert failure[1].startswith(f"entries violate bc = 1 - a^2 by {10 * x_max:.0f}.")


@pytest.mark.parametrize("n", [64, 3 * _BLOCK])
def test_p_integral_reports_a_domain_exit_before_later_violations(n):
    # The first leg leaves the domain through y = 1; the violations lie on
    # the second leg, after it comes back in.
    curve = ParameterizedCurve.polyline([(0.1, 0.5), (0.2, 1.2), (0.8, 0.5)])
    failure = _failure(p_integral, _valid_up_to(0.5), curve, n, "even")
    assert failure == _failure(_p_integral_oracle, _valid_up_to(0.5), curve, n, "even")
    assert failure[0] is FieldDomainError
    assert "is outside the field domain" in failure[1]


def _curve_failing_after(slope, s_max):
    """Runs along y = 0.5 at x = 0.1 + slope * s; no point past s_max."""

    def fn(s):
        if s > s_max:
            raise ArithmeticError(f"no point at s = {s!r}")
        return (0.1 + slope * s, 0.5)

    return ParameterizedCurve(fn, 0.0, 1.0)


# The curve fails at s = 0.6; a bc violation from x = x_max, or a domain
# exit at x = 1, comes first when it is met before that.
@pytest.mark.parametrize("n", [64, 3 * _BLOCK])
@pytest.mark.parametrize(
    "slope,x_max,kind",
    [
        (0.8, 0.5, ValidationError),
        (2.0, 2.0, FieldDomainError),
        (0.8, 2.0, ArithmeticError),
    ],
)
def test_p_integral_reports_the_first_failing_step_of_a_scalar_curve(
    n, slope, x_max, kind
):
    curve = _curve_failing_after(slope, 0.6)
    field = _valid_up_to(x_max)
    failure = _failure(p_integral, field, curve, n, "even")
    assert failure == _failure(_p_integral_oracle, field, curve, n, "even")
    assert failure[0] is kind


@pytest.mark.parametrize(
    "point",
    [(1.0 + 1e-9, 0.5), (0.5, 1.0 + 1e-9), (0.0 - 1e-9, 0.5), (0.5, 0.0 - 1e-9)],
)
def test_p_integral_domain_test_matches_contains_at_the_edge(point):
    # Exactly on the slack edge is inside; one ulp further is not.
    out = tuple(np.nextafter(v, 2 * v - 0.5) for v in point)
    for p in (point, out):
        curve = ParameterizedCurve.line(p, p)
        assert WAVE.contains(*p) == (p == point)
        if p == point:
            got = p_integral(WAVE, curve, 4, "even")
            assert got.tobytes() == _p_integral_oracle(WAVE, curve, 4, "even").tobytes()
        else:
            failure = _failure(p_integral, WAVE, curve, 4, "even")
            assert failure == _failure(_p_integral_oracle, WAVE, curve, 4, "even")
            assert failure[1].startswith(f"point ({float(p[0])!r}, {float(p[1])!r})")


def test_p_integral_makes_no_scalar_call_per_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("p_integral made a per-step scalar call")

    built_in = ORACLE_CURVES[:-1]
    fields = [WAVE] + [_FIELD_BUILDERS[name]() for name in BUILT_IN]
    want = [
        [p_integral(field, curve, 2 * _BLOCK + 1, "odd") for curve in built_in]
        for field in fields
    ]
    contains = InvolutionField.contains

    def array_contains(field, x, y, margin=0.0):
        if np.ndim(x) == 0:
            refuse()
        return contains(field, x, y, margin)

    monkeypatch.setattr(ParameterizedCurve, "point", refuse)
    monkeypatch.setattr(InvolutionField, "contains", array_contains)
    # The built-in fields have an array form: no evaluator call either.
    for field in fields[1:]:
        monkeypatch.setattr(field, "evaluator", refuse)
    for field, expected in zip(fields, want):
        for curve, product in zip(built_in, expected):
            got = p_integral(field, curve, 2 * _BLOCK + 1, "odd")
            assert got.tobytes() == product.tobytes()
    # The scalar-only curve has no array form: it goes through point.
    with pytest.raises(AssertionError, match="per-step scalar call"):
        p_integral(WAVE, ORACLE_CURVES[-1], 2 * _BLOCK + 1, "odd")
    # A field given only by its evaluator is mapped point by point.
    monkeypatch.setattr(TWISTED, "evaluator", refuse)
    with pytest.raises(AssertionError, match="per-step scalar call"):
        p_integral(TWISTED, _LINE, 64, "even")


def test_a_scalar_only_t_map_raises_the_blocks_type_error():
    def one_at_a_time(x, y):
        if len(x) > 1:
            raise TypeError("takes one sample at a time")
        return x + y

    wave = lambda x, y: math.sin(x) + y * y  # noqa: E731
    xs = np.linspace(0.1, 0.9, 8)
    for t_func in (one_at_a_time, wave):
        with pytest.raises(TypeError) as block:
            t_func(xs, xs)
        field = InvolutionField.from_parameter(t_func, "elliptic")
        for run in (p_integral, convergence_report):
            # one_at_a_time passes the step-by-step replay, so the block's
            # own error propagates.
            with pytest.raises(TypeError) as info:
                run(field, _LINE, 64, "even")
            assert str(info.value) == str(block.value)


def test_p_integral_builds_no_involution_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("p_integral built an InvolutionMatrix")

    monkeypatch.setattr(InvolutionMatrix, "__post_init__", refuse)
    p_integral(WAVE, _TWO_LEG, 2 * _BLOCK + 1, "odd")
    p_integral(HALF_COMPLEX, _LINE, 64, "even")


def _k7_embedding():
    angles = [2 * math.pi * k / 7 for k in range(7)]
    coords = [(0.5 + 0.4 * math.cos(a), 0.5 + 0.4 * math.sin(a)) for a in angles]
    return GraphEmbedding.straight(RelationGraph.complete(list(range(7))), coords)


def test_p_integral_memory_does_not_grow_with_steps():
    # Each product samples one block at a time, which peaks near 0.14 MiB.
    # A fold that samples all its steps first takes about 136 bytes a step:
    # 4.3 MiB for p_integral's 2**15 steps, 8.5 MiB for convergence_report's
    # 2**15 and 2**16, and 5.6 MiB for K7's 42 products of 1024 steps
    # sampled together, each past its bound. tracemalloc hooks every Python
    # float of the fold, so these sizes keep the test short.
    wave = _FIELD_BUILDERS["elliptic-wave"]()
    k7 = _k7_embedding()
    runs = [
        (lambda: p_integral(WAVE, _TWO_LEG, 2 ** 15, "even"), 2 ** 20),
        (lambda: convergence_report(wave, _TWO_LEG, 2 ** 15, "even"), 2 * 2 ** 20),
        (lambda: discretize(wave, k7, EdgeQuadratureRule("even", 1024)), 2 * 2 ** 20),
    ]
    for run, bound in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_convergence_report_equals_two_p_integrals():
    fields = [_FIELD_BUILDERS[name]() for name in BUILT_IN] + [HALF_COMPLEX]
    for field in fields:
        for curve in ORACLE_CURVES:
            for n in (2, 3, _BLOCK - 1, _BLOCK + 1):
                parity = "even" if n % 2 == 0 else "odd"
                report = convergence_report(field, curve, n, parity)
                coarse = p_integral(field, curve, report.steps, parity)
                refined = p_integral(field, curve, report.refined_steps, parity)
                for got, want in ((report.value, coarse), (report.refined, refined)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                assert report.difference == float(np.abs(coarse - refined).max())
        # HALF_COMPLEX turns complex part way along; the others stay real.
        assert convergence_report(field, _LINE, 64, "even").value.dtype == (
            complex if field is HALF_COMPLEX else float
        )


def test_the_products_of_a_convergence_report_keep_their_own_dtype():
    # HALF_COMPLEX is complex above y = 0.5, which this line crosses at
    # s = 0.8: the 2 midpoints of the coarse grid stay below it, and the
    # last of the 4 refined ones does not.
    line = ParameterizedCurve.line((0.3, 0.1), (0.6, 0.6))
    report = convergence_report(HALF_COMPLEX, line, 2, "even")
    assert (report.value.dtype, report.refined.dtype) == (float, complex)
    for got, n in ((report.value, 2), (report.refined, 4)):
        assert got.tobytes() == _p_integral_oracle(HALF_COMPLEX, line, n, "even").tobytes()


# Products that numpy may hand to BLAS, whose kernel is picked for the CPU.
_BLAS_FUNCTIONS = {np.dot, np.vdot, np.inner, np.tensordot, np.einsum, np.linalg.det}


def _no_blas(value):
    if type(value) is np.ndarray:
        return value.view(_NoBlas)
    if isinstance(value, tuple):
        return tuple(map(_no_blas, value))
    return value


class _NoBlas(np.ndarray):
    """An array that refuses np.matmul (which ``@`` calls) and the products
    in _BLAS_FUNCTIONS; what it computes otherwise is an _NoBlas too."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("a BLAS product: np.matmul or @")
        plain = [x.view(np.ndarray) if isinstance(x, _NoBlas) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, _NoBlas) else x for x in kwargs["out"]
            )
        return _no_blas(getattr(ufunc, method)(*plain, **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        if func in _BLAS_FUNCTIONS:
            raise AssertionError(f"a BLAS product: {func.__name__}")
        return super().__array_function__(func, types, args, kwargs)


class _NumpyWithoutBlas:
    """numpy for smoothfield: np.dot, np.matmul and np.linalg are refused,
    and every array a numpy function returns is an _NoBlas."""

    def __getattr__(self, name):
        if name in ("dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg"):
            raise AssertionError(f"a BLAS product: np.{name}")
        value = getattr(np, name)
        if isinstance(value, (type, np.ufunc)) or not callable(value):
            return value
        return lambda *args, **kwargs: _no_blas(value(*args, **kwargs))


def test_the_smooth_paths_make_no_blas_product(monkeypatch, capsys, fixtures_dir):
    wave = _FIELD_BUILDERS["elliptic-wave"]()
    loop = ORACLE_CURVES[2]
    k4 = ["--net", str(fixtures_dir / "k4_complete.json")]
    k4 += ["--embedding", str(fixtures_dir / "k4_embedding.json")]
    curve = '{"type": "polyline", "points": [[0.1, 0.1], [0.4, 0.2], [0.3, 0.5]]}'
    commands = [
        ["smooth", "p-integral", "--field", "elliptic-wave", "--curve", curve, "--n", "2049",
         "--parity", "odd"],
        ["smooth", "check-residual", "--field", "elliptic-wave", "--grid", "33"],
        ["smooth", "discretize", "--field", "elliptic-wave", *k4],
    ]
    embedding, rules = _k5_embedding()

    def run():
        report = convergence_report(wave, loop, 2 * _BLOCK, "even")
        products = [
            p_integral(wave, loop, 2 * _BLOCK + 1, "odd"),
            p_integral(HALF_COMPLEX, _LINE, 64, "even"),
            infinitesimal_residual(wave, (0.4, 0.35), 1e-3).matrix,
            report.value,
            report.refined,
            report.difference,
            *discretize(wave, embedding, rules).marks.values(),
        ]
        documents = []
        for argv in commands:
            assert cli.main(argv) == 0
            documents.append(capsys.readouterr().out)
        return [np.asarray(v).tobytes() for v in products], documents

    want = run()
    monkeypatch.setattr(smoothfield, "np", _NumpyWithoutBlas())
    with pytest.raises(AssertionError, match="a BLAS product"):
        smoothfield.np.ones((2, 2)) @ np.eye(2)
    assert run() == want


def _k5_embedding():
    """K5 with odd edges across {1, 2} | {3, 4, 5}, mixed step counts around
    _BLOCK and two polyline edges."""
    graph = RelationGraph.complete([1, 2, 3, 4, 5])
    coords = [(0.1, 0.15), (0.85, 0.1), (0.9, 0.8), (0.45, 0.92), (0.12, 0.7)]
    curves = {
        (i, j): ParameterizedCurve.line(coords[i], coords[j])
        for i, j in graph.undirected_edges
    }
    curves[(0, 2)] = ParameterizedCurve.polyline([coords[0], (0.6, 0.5), coords[2]])
    curves[(3, 4)] = ParameterizedCurve.polyline(
        [coords[3], (0.3, 0.88), (0.2, 0.8), coords[4]]
    )
    odd = iter([3, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1, 65, 5])
    even = iter([2, _BLOCK, 64, 2 * _BLOCK])
    rules = {
        (i, j): EdgeQuadratureRule("odd", next(odd))
        if (i < 2) != (j < 2)
        else EdgeQuadratureRule("even", next(even))
        for i, j in graph.undirected_edges
    }
    return GraphEmbedding(graph, tuple(coords), curves), rules


@pytest.mark.parametrize("name", BUILT_IN)
def test_discretize_marks_equal_per_edge_p_integrals_bit_for_bit(name, fixtures_dir):
    field = _FIELD_BUILDERS[name]()
    k4 = load_network(fixtures_dir / "k4_complete.json").graph
    for embedding, rules in (
        load_embedding(fixtures_dir / "k4_embedding.json", k4),
        _k5_embedding(),
    ):
        marking = discretize(field, embedding, rules)
        edges = embedding.graph.undirected_edges
        for i, j in edges:
            rule, curve = rules[(i, j)], embedding.curve(i, j)
            forward = p_integral(field, curve, rule.steps, rule.parity)
            backward = p_integral(field, curve.reversed(), rule.steps, rule.parity)
            assert marking.mark(i, j).tobytes() == forward.tobytes()
            assert marking.mark(j, i).tobytes() == backward.tobytes()
            sign = 1 if rule.parity == "even" else -1
            assert marking.signs[(i, j)] == marking.signs[(j, i)] == sign


def _discretize_oracle(field, embedding, rules, tol=TAU_NUM):
    """The per-edge loop: forward and backward products, then their checks."""
    marks = {}
    for i, j in embedding.graph.undirected_edges:
        rule, curve = rules[(i, j)], embedding.curve(i, j)
        forward = p_integral(field, curve, rule.steps, rule.parity)
        backward = p_integral(field, curve.reversed(), rule.steps, rule.parity)
        for key, mat in (((i, j), forward), ((j, i), backward)):
            det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
            expected = 1.0 if rule.parity == "even" else -1.0
            if abs(det - expected) > tol:
                raise ValidationError(
                    f"edge {key} determinant {det:.9f} violates the parity law"
                )
            marks[key] = mat
    return marks


def _leaves_when_reversed(p, q):
    """A line from p to q whose reversed run leaves the domain: asked for a
    decreasing s, its points jump past x = 1."""
    line = ParameterizedCurve.line(p, q)

    def points(s):
        x, y = line.points(s)
        return (x + 2.0 if len(s) > 1 and s[0] > s[-1] else x), y

    return ParameterizedCurve(line.fn, 0.0, 1.0, points)


# Off the quadric by 5e-10 (within TAU_FLD) left of x = 0.3: even products
# of 4096 such steps miss det 1 by about 2e-6, more than TAU_NUM.
_DRIFTING = InvolutionField(
    lambda x, y: (0.0, 1.0 + (5e-10 if x < 0.3 else 0.0), 1.0)
)


@pytest.mark.parametrize(
    "field,trap,kind",
    [
        (_DRIFTING, False, ValidationError),
        (_FIELD_BUILDERS["elliptic-wave"](), True, FieldDomainError),
        (_DRIFTING, True, ValidationError),
    ],
    ids=["determinant", "backward-exit", "determinant-before-exit"],
)
def test_discretize_fails_as_the_per_edge_loop(field, trap, kind):
    # Edge (0, 1) lies left of x = 0.3; edge (1, 2), the last, may carry a
    # curve that only its backward run takes out of the domain.
    graph = RelationGraph.complete([1, 2, 3])
    coords = ((0.1, 0.2), (0.2, 0.8), (0.8, 0.5))
    curves = {
        (i, j): ParameterizedCurve.line(coords[i], coords[j])
        for i, j in graph.undirected_edges
    }
    if trap:
        curves[(1, 2)] = _leaves_when_reversed(coords[1], coords[2])
    embedding = GraphEmbedding(graph, coords, curves)
    rules = {edge: EdgeQuadratureRule("even", 4096) for edge in graph.undirected_edges}
    assert list(graph.undirected_edges)[-1] == (1, 2)
    failure = _failure(discretize, field, embedding, rules)
    assert failure == _failure(_discretize_oracle, field, embedding, rules)
    assert failure[0] is kind
    if kind is ValidationError:
        assert failure[1].startswith("edge (0, 1) determinant")


def test_ordered_product_second_order_convergence():
    curve = ParameterizedCurve.line((0.1, 0.2), (0.8, 0.7))
    coarse = convergence_report(WAVE, curve, 64, "even")
    fine = convergence_report(WAVE, curve, 128, "even")
    assert coarse.steps == 64 and coarse.refined_steps == 128
    assert np.array_equal(coarse.refined, fine.value)
    assert fine.difference == pytest.approx(coarse.difference / 4.0, rel=0.05)


def _residual_oracle(evaluate, point, h):
    """Nine scalar calls, in the order of the formulas."""

    def m(x, y):
        a, b, c = evaluate(x, y)
        return np.array([[a, b], [c, -a]])

    x, y = point
    a_x = (m(x + h, y) - m(x - h, y)) / (2.0 * h)
    a_y = (m(x, y + h) - m(x, y - h)) / (2.0 * h)
    a_xy = (
        m(x + h, y + h) - m(x + h, y - h) - m(x - h, y + h) + m(x - h, y - h)
    ) / (4.0 * h * h)
    res = _product(m(x, y), a_xy) + _product(a_y, a_x)
    return ResidualReport(point=(x, y), h=h, matrix=res, norm=float(np.abs(res).max()))


@pytest.mark.parametrize("name", BUILT_IN)
def test_residual_matches_the_nine_call_oracle_byte_for_byte(name, capsys):
    field, scalar = _FIELD_BUILDERS[name](), SCALAR_FIELDS[name]
    for h in (1e-3, 1e-2):
        for point in ((0.4, 0.35), (0.02, 0.97), (0.5, 0.5)):
            got = infinitesimal_residual(field, point, h)
            want = _residual_oracle(scalar, point, h)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert (got.point, got.h, got.norm) == (want.point, want.h, want.norm)

    def oracle_document(grid, h=1e-3, ulps=0):
        # The handler as a loop over grid points, each norm from nine scalar
        # calls; ulps moves the maximum that many floats up.
        (x0, x1), (y0, y1) = field.domain
        pad = 2 * h + 1e-9
        step_x = (x1 - x0 - 2 * pad) / max(grid - 1, 1)
        step_y = (y1 - y0 - 2 * pad) / max(grid - 1, 1)
        worst, argmax = -1.0, None
        for ix in range(grid):
            for iy in range(grid):
                x, y = x0 + pad + ix * step_x, y0 + pad + iy * step_y
                norm = _residual_oracle(scalar, (x, y), h).norm
                if norm > worst:
                    worst, argmax = norm, (x, y)
        for _ in range(ulps):
            worst = math.nextafter(worst, math.inf)
        doc = {
            "field": name,
            "grid": grid,
            "h": h,
            "max_residual": worst,
            "argmax": [round(argmax[0], 12), round(argmax[1], 12)],
            "passes": worst <= TAU_NUM * 100,
        }
        return json.dumps(doc, indent=2) + "\n"

    for grid in (1, 3, 17):
        argv = ["smooth", "check-residual", "--field", name, "--grid", str(grid)]
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        assert got == oracle_document(grid)
        assert got != oracle_document(grid, ulps=1)


def _signed_evaluator(x, y):
    """The elliptic field with b and c times the sign of x, so a sample at
    -0.0 differs from one at +0.0."""
    s = math.copysign(1.0, x)
    return math.cos(x + y), s * math.sin(x + y), s * math.sin(x + y)


SIGNED = InvolutionField(_signed_evaluator, domain=((-1.0, 1.0), (-1.0, 1.0)))


def test_residual_stack_matches_the_nine_call_oracle_point_by_point():
    # x itself, not x + 0.0, sits at the zero offsets, so -0.0 keeps its sign.
    points = [(-0.0, 0.5), (0.0, 0.5), (-0.0, -0.0), (0.3, -0.2), (-0.5, 0.7)]
    xs, ys = (np.array(v) for v in zip(*points))
    for h in (1e-3, 1e-2):
        got = smoothfield._residuals(SIGNED, xs, ys, h)
        for res, point in zip(got, points):
            want = _residual_oracle(_signed_evaluator, point, h)
            assert res.tobytes() == want.matrix.tobytes()
            assert infinitesimal_residual(SIGNED, point, h).matrix.tobytes() == res.tobytes()


def _first_error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_residual_stack_fails_as_the_point_loop():
    def loop(field, xs, ys, h):
        for x, y in zip(xs.tolist(), ys.tolist()):
            infinitesimal_residual(field, (x, y), h)

    def raising_at(bad):
        def evaluator(x, y):
            if (x, y) == bad:
                raise ValueError(f"no sample at {bad}")
            return math.cos(x), math.sin(x), math.sin(x)

        return InvolutionField(evaluator)

    h = 1e-2
    xs, ys = np.array([0.2, 0.4, 0.999, 0.6]), np.array([0.5, 0.5, 0.5, 0.5])
    # The third point leaves no margin; a failing sample of the second
    # point comes first, a failing sample of the fourth never.
    kinds = []
    for field in (WAVE, raising_at((0.4 + h, 0.5)), raising_at((0.6, 0.5))):
        failure = _first_error(smoothfield._residuals, field, xs, ys, h)
        assert failure == _first_error(loop, field, xs, ys, h)
        kinds.append(failure[0])
    assert kinds == [FieldDomainError, ValueError, FieldDomainError]
    assert failure[1].startswith("point (0.999, 0.5) does not keep margin")


def test_check_residual_and_discretize_sample_in_one_call(monkeypatch, capsys, fixtures_dir):
    calls = []

    def counted(field, xs, ys):
        calls.append(len(xs))
        return samples(field, xs, ys)

    samples = smoothfield._samples
    monkeypatch.setattr(smoothfield, "_samples", counted)
    assert cli.main(["smooth", "check-residual", "--grid", "17"]) == 0
    assert calls == [9 * 17 * 17]
    calls.clear()
    argv = ["smooth", "discretize", "--net", str(fixtures_dir / "k4_complete.json")]
    argv += ["--embedding", str(fixtures_dir / "k4_embedding.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # The 4 x 4 residual spot check, then the blocked edge products.
    assert calls[0] == 9 * 4 * 4
    assert all(n <= _BLOCK for n in calls[1:])


def test_residual_validation():
    with pytest.raises(ValidationError):
        infinitesimal_residual(WAVE, (0.5, 0.5), 0.0)
    with pytest.raises(FieldDomainError):
        infinitesimal_residual(WAVE, (0.999, 0.5), 1e-2)


def test_residual_second_order_for_potential_field():
    norms, orders = residual_orders(WAVE, (0.4, 0.35), (1e-2, 5e-3, 2.5e-3))
    assert norms[0] == pytest.approx(1.289435e-04, rel=1e-4)
    assert norms[2] == pytest.approx(8.059265e-06, rel=1e-4)
    assert all(abs(o - 2.0) < 0.01 for o in orders)


def test_residual_flat_for_twisted_field():
    norms, _ = residual_orders(TWISTED, (0.5, 0.5), (1e-2, 5e-3, 2.5e-3))
    assert all(n == pytest.approx(1.1017, abs=2e-3) for n in norms)


def test_plane_coefficients():
    with pytest.raises(ValidationError):
        PlaneCoefficients(0.0, 0.0, 0.0)
    plane = PlaneCoefficients(0.0, lambda y: 1.0 + y, lambda y: -(1.0 + y))
    assert not plane.is_constant()
    assert plane.at(0.5) == (0.0, 1.5, -1.5)
    with pytest.raises(ValidationError):
        plane.constants()
    assert PlaneCoefficients(0.0, 1.0, -1.0).constants() == (0.0, 1.0, -1.0)


def _section_stays_on_quadric_and_plane(family, ts=(-1.5, -0.4, 0.3, 1.2)):
    for branch in range(len(family.branches)):
        for t in ts:
            a, b, c = family.point(t, branch)
            assert abs(a * a + b * c - 1.0) < 1e-9
            assert family.plane_defect(t, branch) < 1e-9


def test_plane_sections_without_diagonal_term():
    hyp = plane_section_solution(PlaneCoefficients(0.0, 1.0, 1.0))
    assert hyp.kind == "hyperbolic" and not hyp.closed
    assert len(hyp.branches) == 2
    assert hyp.point(0.7, 0) == pytest.approx(
        (math.cosh(0.7), math.sinh(0.7), -math.sinh(0.7))
    )
    assert hyp.point(0.7, 1)[0] == pytest.approx(-math.cosh(0.7))
    _section_stays_on_quadric_and_plane(hyp)

    ell = plane_section_solution(PlaneCoefficients(0.0, 1.0, -1.0))
    assert ell.kind == "elliptic" and ell.closed
    assert ell.point(0.7) == pytest.approx(
        (math.cos(0.7), math.sin(0.7), math.sin(0.7))
    )
    assert ell.point(0.0) == pytest.approx((1.0, 0.0, 0.0))
    _section_stays_on_quadric_and_plane(ell)
    assert ell.matrix(0.7).a == pytest.approx(math.cos(0.7))


def test_plane_sections_with_diagonal_term():
    rec = plane_section_solution(PlaneCoefficients(1.0, 0.0, 0.0))
    assert rec.kind == "reciprocal"
    assert rec.point(0.5, 0) == pytest.approx(
        (0.0, math.exp(0.5), math.exp(-0.5))
    )
    _section_stays_on_quadric_and_plane(rec)

    rat = plane_section_solution(PlaneCoefficients(1.0, 0.0, 2.0))
    assert rat.kind == "rational"
    assert rat.l_param == pytest.approx(1.0)
    _section_stays_on_quadric_and_plane(rat)

    ell = plane_section_solution(PlaneCoefficients(1.0, 1.0, -3.0))
    assert ell.kind == "ellipse" and ell.closed
    _section_stays_on_quadric_and_plane(ell)

    hyp = plane_section_solution(PlaneCoefficients(1.0, 1.0, 1.0))
    assert hyp.kind == "hyperbola" and len(hyp.branches) == 2
    _section_stays_on_quadric_and_plane(hyp)


def test_degenerate_plane_raises():
    with pytest.raises(DegeneratePlaneError):
        plane_section_solution(PlaneCoefficients(1.0, 1.0, -1.0))
    with pytest.raises(DegeneratePlaneError):
        plane_section_solution(PlaneCoefficients(0.0, 1.0, 0.0))


def test_ode_field_reproduces_plane_matrix():
    plane = PlaneCoefficients(0.0, lambda y: 1.0 + y, lambda y: -(1.0 + y))
    field = solve_ode_field(plane, lambda x: x)
    # t integrates C2's magnitude in y on top of the x profile.
    assert field.t_function(0.3, 0.0) == pytest.approx(0.3)
    assert field.t_function(0.2, 0.6) == pytest.approx(0.2 + 0.6 + 0.18)
    assert field(0.3, 0.0).a == pytest.approx(math.cos(0.3))

    h = 1e-6
    for x, y in ((0.2, 0.3), (0.7, 0.6)):
        a = field(x, y).matrix
        a_y = (field(x, y + h).matrix - field(x, y - h).matrix) / (2 * h)
        assert np.abs(a @ a_y - field.rhs(y)).max() < 1e-6


def test_ode_field_hyperbolic_branch():
    field = solve_ode_field(PlaneCoefficients(0.0, 1.0, 1.0), lambda x: 0.5 * x)
    assert field(0.4, 0.3).a == pytest.approx(math.cosh(0.5 * 0.4 + 0.3))


def test_ode_field_rejects_bad_coefficient_profiles():
    with pytest.raises(ValidationError):
        solve_ode_field(
            PlaneCoefficients(0.0, lambda y: y - 0.5, lambda y: 1.0),
            lambda x: 0.0,
        )
    with pytest.raises(ValidationError):
        solve_ode_field(
            PlaneCoefficients(0.0, 1.0, lambda y: -(1.0 + y)),
            lambda x: 0.0,
        )


def test_straight_embedding():
    k3 = RelationGraph.complete([1, 2, 3])
    with pytest.raises(ValidationError):
        GraphEmbedding.straight(k3, [(0, 0), (1, 0)])
    emb = GraphEmbedding.straight(k3, [(0, 0), (1, 0), (0, 1)])
    assert emb.curve(0, 1).start == (0.0, 0.0)
    assert emb.curve(1, 0).start == (1.0, 0.0)
    assert emb.curve(1, 0).end == (0.0, 0.0)


def test_load_embedding(fixtures_dir):
    from balancenets.network import load_network

    marking = load_network(fixtures_dir / "k4_complete.json")
    emb, rules = load_embedding(
        fixtures_dir / "k4_embedding.json", marking.graph
    )
    assert emb.coordinates[0] == (0.05, 0.05)
    assert len(rules) == 6
    assert all(r.parity == "even" and r.steps == 1024 for r in rules.values())
    assert emb.curve(0, 1).start == emb.coordinates[0]
    assert emb.curve(0, 1).end == emb.coordinates[1]


def test_load_embedding_rejects_bad_payloads():
    k3 = RelationGraph.complete([1, 2, 3])
    nodes = {"1": [0, 0], "2": [1, 0], "3": [0, 1]}
    with pytest.raises(ValidationError):
        load_embedding({"nodes": {**nodes, "9": [2, 2]}}, k3)
    with pytest.raises(ValidationError):
        load_embedding({"nodes": {"1": [0, 0], "2": [1, 0]}}, k3)
    with pytest.raises(ValidationError):
        load_embedding(
            {
                "nodes": nodes,
                "edges": [
                    {"from": "1", "to": "2", "polyline": [[0, 0], [0.5, 0.5]]}
                ],
            },
            k3,
        )
    with pytest.raises(ValidationError):
        load_embedding(json.dumps({"nodes": nodes, "edges": [{"from": "1"}]}), k3)
    bent, rules = load_embedding(
        {
            "nodes": nodes,
            "edges": [
                {
                    "from": "1",
                    "to": "2",
                    "polyline": [[0, 0], [0.5, 0.3], [1, 0]],
                    "parity": "odd",
                    "steps": 33,
                }
            ],
        },
        k3,
    )
    assert bent.curve(0, 1).point(0.25) == (0.25, 0.15)
    assert rules[(0, 1)].parity == "odd" and rules[(0, 1)].steps == 33
    assert rules[(1, 2)].parity == "even"


def test_load_embedding_rejects_an_edge_listed_twice(fixtures_dir):
    graph = load_network(fixtures_dir / "k4_complete.json").graph
    payload = json.loads((fixtures_dir / "k4_embedding.json").read_text())
    for again in ({"from": "2", "to": "1", "steps": 6}, {"from": "1", "to": "2"}):
        doubled = {**payload, "edges": payload["edges"] + [again]}
        edge = re.escape(f"({again['from']!r}, {again['to']!r})")
        with pytest.raises(ValidationError, match=rf"edge {edge} is listed twice"):
            load_embedding(doubled, graph)


def test_valid_parity_assignment_on_triangle():
    k3 = RelationGraph.complete([1, 2, 3])

    def tagged(odd_edges):
        return {
            edge: ("odd" if edge in odd_edges else "even")
            for edge in k3.undirected_edges
        }

    assert valid_parity_assignment(k3, tagged(set()))
    assert valid_parity_assignment(k3, tagged({(0, 1), (0, 2)}))
    assert not valid_parity_assignment(k3, tagged({(0, 1)}))
    assert not valid_parity_assignment(
        k3, tagged({(0, 1), (0, 2), (1, 2)})
    )
    with pytest.raises(ValidationError):
        valid_parity_assignment(k3, {(0, 1): "even"})


def test_discretize_closes_cycles_for_potential_field():
    k4 = RelationGraph.complete([1, 2, 3, 4])
    emb = GraphEmbedding.straight(
        k4, [(0.05, 0.05), (0.95, 0.1), (0.9, 0.9), (0.1, 0.85)]
    )
    mm = discretize(WAVE, emb, EdgeQuadratureRule("even", 256))
    assert mm.potential_ok
    assert mm.max_defect < 1e-6
    assert set(mm.signs.values()) == {1}
    assert np.abs(mm.mark(0, 1) @ mm.mark(1, 0) - np.eye(2)).max() < 1e-12


def test_discretize_with_odd_edges_forming_a_cut():
    square = RelationGraph.cycle([1, 2, 3, 4])
    emb = GraphEmbedding.straight(
        square, [(0.1, 0.1), (0.9, 0.15), (0.85, 0.9), (0.12, 0.88)]
    )
    rules = {
        (0, 1): EdgeQuadratureRule("odd", 257),
        (1, 2): EdgeQuadratureRule("even", 256),
        (2, 3): EdgeQuadratureRule("odd", 257),
        (3, 0): EdgeQuadratureRule("even", 256),
    }
    mm = discretize(WAVE, emb, rules)
    assert mm.potential_ok
    assert mm.max_defect < 1e-6
    assert mm.signs[(0, 1)] == -1 and mm.signs[(2, 3)] == -1
    assert mm.signs[(1, 2)] == 1 and mm.signs[(3, 0)] == 1

    bad_rules = dict(rules)
    bad_rules[(1, 2)] = EdgeQuadratureRule("odd", 257)
    with pytest.raises(ParityError):
        discretize(WAVE, emb, bad_rules)


def test_discretize_rejects_twisted_field():
    k3 = RelationGraph.complete([1, 2, 3])
    emb = GraphEmbedding.straight(k3, [(0.2, 0.2), (0.8, 0.25), (0.5, 0.8)])
    with pytest.raises(NonPotentialError):
        discretize(TWISTED, emb, EdgeQuadratureRule("even", 64))


def test_projection_onto_section():
    family = plane_section_solution(PlaneCoefficients(0.0, 1.0, 1.0))
    a, b, c = project_point_to_section(family, (0.5, math.sqrt(0.75), math.sqrt(0.75)))
    assert abs(a * a + b * c - 1.0) < 1e-9
    assert abs(b + c) < 1e-9
    again = project_point_to_section(family, (a, b, c))
    assert (a, b, c) == pytest.approx(again, abs=1e-7)

    # Dense sampling cannot beat the optimizer by more than slack.
    target = np.array([0.5, math.sqrt(0.75), math.sqrt(0.75)])
    best = min(
        float(np.sum((np.array(family.point(t, br)) - target) ** 2))
        for br in range(2)
        for t in np.linspace(-6, 6, 4001)
    )
    mine = float(np.sum((np.array([a, b, c]) - target) ** 2))
    assert mine <= best + 1e-9


def test_project_field_to_plane():
    const = InvolutionField.constant(InvolutionMatrix(0.5, 1.5, 0.5))
    proj = project_to_plane(const, PlaneCoefficients(0.0, 1.0, 1.0))
    inv = proj(0.3, 0.7)
    assert abs(inv.b + inv.c) < 1e-9
    assert abs(inv.a ** 2 + inv.b * inv.c - 1.0) < 1e-9
    assert proj.name == "projected(constant)"


def test_check_residual_memory_does_not_grow_with_the_grid(capsys):
    # All 300**2 points in one _residuals call peak at about 60 MiB; blocks
    # of _BLOCK points stay under 1 MiB.
    tracemalloc.start()
    try:
        assert cli.main(["smooth", "check-residual", "--grid", "300"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("name", sorted(_FIELD_BUILDERS))
def test_check_residual_blocks_print_what_one_call_prints(monkeypatch, capsys, name):
    # 33**2 = _BLOCK + 65 points: two blocks.  The constant field ties at
    # every point, so the first point must win across blocks too.
    calls = []

    def counted(field, xs, ys):
        calls.append(len(xs))
        return samples(field, xs, ys)

    samples = smoothfield._samples
    monkeypatch.setattr(smoothfield, "_samples", counted)
    argv = ["smooth", "check-residual", "--field", name, "--grid", "33"]
    assert cli.main(argv) == 0
    blocked = capsys.readouterr().out
    assert calls == [9 * _BLOCK, 9 * (33 * 33 - _BLOCK)]
    monkeypatch.setattr(smoothfield, "_BLOCK", 33 * 33)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == blocked
