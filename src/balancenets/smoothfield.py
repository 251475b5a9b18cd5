"""Smooth fields of trace-free involutions and their path-ordered products.

A field assigns an involution matrix to every point of a planar domain.
Ordered midpoint products along curves play the role edge marks play on
graphs; parity of the step count fixes the determinant of the result.
The canonical solution families live on the quadric a**2 + b*c = 1 cut
by a plane 2*a*C1 + c*C2 + b*C3 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterator, Mapping, Sequence

from .config import (
    REFERENCE_STEPS, TAU_FLD, TAU_NUM, label_text, label_texts, lazy_module, read_json
)
from .errors import (
    DegeneratePlaneError,
    FieldDomainError,
    NonPotentialError,
    ParityError,
    ValidationError,
)
from .involution import InvolutionMatrix, check_quadric
from .network import RelationGraph, _tree_consistency
from .potential import partition_from_signs

np = lazy_module("numpy")

Point = tuple[float, float]

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
_DOMAIN_SLACK = 1e-9


def _point(value, what: str) -> Point:
    """An [x, y] pair of real numbers as floats; anything else is rejected."""
    if not (
        isinstance(value, (list, tuple, np.ndarray))
        and len(value) == 2
        and all(isinstance(v, Real) and not isinstance(v, bool) for v in value)
    ):
        raise ValidationError(f"{what} must be an [x, y] pair of numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def pointwise(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """fn applied to each entry of a float array, in order.

    For sin, cos, sinh and cosh these are the libm calls of the ``math``
    module, so the entries keep the bits of a point-by-point evaluation on
    every machine; numpy's own ufuncs do not promise that (``np.cosh`` and
    ``math.cosh`` differ in the last bit on many inputs).
    """
    return np.fromiter(map(fn, values.tolist()), float, len(values))


class InvolutionField:
    """Pointwise involution matrices over a rectangular domain.

    The evaluator must return entries satisfying b*c = 1 - a**2 at every
    sampled point; violations raise when the point is evaluated. The
    built-in parameter fields are defined in array form (``components``);
    their evaluator applies it to one-element arrays.
    """

    def __init__(
        self,
        evaluator: Callable[[float, float], tuple],
        domain: tuple[tuple[float, float], tuple[float, float]] = UNIT_SQUARE,
        tol: float = TAU_FLD,
        name: str = "",
    ):
        (x0, x1), (y0, y1) = domain
        if not (x0 < x1 and y0 < y1):
            raise ValidationError("domain intervals must be non-degenerate")
        self.evaluator = evaluator
        self.domain = ((float(x0), float(x1)), (float(y0), float(y1)))
        self.tol = tol
        self.name = name
        self._components: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    @classmethod
    def _of_components(cls, components, domain, name: str) -> "InvolutionField":
        def evaluator(x: float, y: float) -> tuple:
            abc = components(np.array([x], dtype=float), np.array([y], dtype=float))
            return tuple(v.item(0) for v in abc)

        field = cls(evaluator, domain, name=name)
        field._components = components
        return field

    def components(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """The a, b and c arrays at float arrays xs and ys, bit for bit the
        evaluator's; a field given only by its evaluator is mapped point by
        point."""
        if self._components is not None:
            return self._components(xs, ys)
        rows = [(a, b, c) for a, b, c in map(self.evaluator, xs.tolist(), ys.tolist())]
        return np.array(rows).reshape(-1, 3).T

    def contains(self, x, y, margin: float = 0.0):
        """Whether (x, y) lies in the domain, kept ``margin`` inside it; for
        float arrays x and y, the same test entry by entry."""
        (x0, x1), (y0, y1) = self.domain
        pad = margin - _DOMAIN_SLACK
        return (x0 + pad <= x) & (x <= x1 - pad) & (y0 + pad <= y) & (y <= y1 - pad)

    def domain_error(self, x: float, y: float) -> FieldDomainError:
        return FieldDomainError(
            f"point ({x!r}, {y!r}) is outside the field domain {self.domain}"
        )

    def __call__(self, x: float, y: float) -> InvolutionMatrix:
        if not self.contains(x, y):
            raise self.domain_error(x, y)
        a, b, c = self.evaluator(x, y)
        return InvolutionMatrix(a, b, c, tol=self.tol)

    def matrix_at(self, x: float, y: float) -> np.ndarray:
        return self(x, y).matrix

    @classmethod
    def from_components(
        cls,
        f1: Callable[[float, float], float],
        f2: Callable[[float, float], float],
        f3: Callable[[float, float], float],
        domain=UNIT_SQUARE,
        tol: float = TAU_FLD,
        name: str = "",
    ) -> "InvolutionField":
        return cls(
            lambda x, y: (f1(x, y), f2(x, y), f3(x, y)), domain, tol, name
        )

    @classmethod
    def from_complex_potential(
        cls,
        z: Callable[[float, float], complex],
        domain=UNIT_SQUARE,
        tol: float = TAU_FLD,
        name: str = "",
    ) -> "InvolutionField":
        """Field [[sqrt(1-z*conj(z)), z], [conj(z), -sqrt(...)]].

        The root takes the principal non-negative branch; |z| = 1 is
        accepted (a = 0 there) but anything beyond raises.
        """

        def components(x: float, y: float):
            val = complex(z(x, y))
            mag2 = (val * val.conjugate()).real
            if mag2 > 1.0 + tol:
                raise FieldDomainError(
                    f"complex potential has |z| = {math.sqrt(mag2):.6f} > 1 "
                    f"at ({x!r}, {y!r})"
                )
            a = math.sqrt(max(0.0, 1.0 - mag2))
            if abs(val.imag) <= tol:
                return (a, val.real, val.real)
            return (a, val, val.conjugate())

        return cls(components, domain, tol, name)

    @classmethod
    def constant(cls, inv: InvolutionMatrix, domain=UNIT_SQUARE) -> "InvolutionField":
        return cls(lambda x, y: (inv.a, inv.b, inv.c), domain, name="constant")

    @classmethod
    def from_parameter(
        cls,
        t_func: Callable,
        kind: str = "elliptic",
        domain=UNIT_SQUARE,
        name: str = "",
    ) -> "InvolutionField":
        """Canonical one-parameter field composed with a map t(x, y).

        t_func maps float arrays x and y to a t array, with numpy
        arithmetic and ``pointwise`` for libm functions, so that each entry
        is the float a point-by-point evaluation would give.
        """
        if kind == "elliptic":
            def family(t):
                s = pointwise(math.sin, t)
                return (pointwise(math.cos, t), s, s)
        elif kind == "hyperbolic":
            def family(t):
                s = pointwise(math.sinh, t)
                return (pointwise(math.cosh, t), s, -s)
        else:
            raise ValidationError(f"unknown canonical kind {kind!r}")
        return cls._of_components(
            lambda xs, ys: family(t_func(xs, ys)), domain, name or kind
        )


@dataclass(frozen=True)
class ParameterizedCurve:
    """Piecewise-smooth map s -> (x(s), y(s)) on [s0, s1].

    Lines, polylines, ``concat`` and ``reversed`` are defined in array form
    (``points``); their ``fn`` evaluates it on a one-element array.
    """

    fn: Callable[[float], Point]
    s0: float
    s1: float
    _points: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self) -> None:
        if not self.s0 < self.s1:
            raise ValidationError("curve parameter interval is empty")

    @classmethod
    def _of_points(cls, points, s0: float, s1: float) -> "ParameterizedCurve":
        def fn(s: float) -> Point:
            x, y = points(np.array([s], dtype=float))
            return (x[0], y[0])

        return cls(fn, s0, s1, points)

    def point(self, s: float) -> Point:
        x, y = self.fn(s)
        return (float(x), float(y))

    def points(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The x and y arrays at a float array s, bit for bit ``point``'s."""
        if self._points is not None:
            return self._points(s)
        xy = np.array([self.point(v) for v in s.tolist()]).reshape(-1, 2)
        return xy[:, 0], xy[:, 1]

    @property
    def start(self) -> Point:
        return self.point(self.s0)

    @property
    def end(self) -> Point:
        return self.point(self.s1)

    def is_closed(self, tol: float = 1e-12) -> bool:
        p, q = self.start, self.end
        return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol

    def reversed(self) -> "ParameterizedCurve":
        s0, s1 = self.s0, self.s1
        return self._of_points(lambda s: self.points(s0 + s1 - s), s0, s1)

    @classmethod
    def line(cls, p: Point, q: Point) -> "ParameterizedCurve":
        p, q = _point(p, "line start"), _point(q, "line end")
        dx, dy = q[0] - p[0], q[1] - p[1]
        return cls._of_points(lambda s: (p[0] + s * dx, p[1] + s * dy), 0.0, 1.0)

    @classmethod
    def polyline(cls, points: Sequence[Point]) -> "ParameterizedCurve":
        if not isinstance(points, (list, tuple, np.ndarray)):
            raise ValidationError(f"polyline points must be a list of [x, y] pairs, got {points!r}")
        pts = [_point(p, "polyline point") for p in points]
        if len(pts) < 2:
            raise ValidationError("polyline needs at least two points")
        count = len(pts) - 1
        cx, cy = np.array(pts).T

        def on_legs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # np.clip keeps -0.0 and nan, as min(max(s, 0.0), 1.0) does.
            u = np.clip(s, 0.0, 1.0) * count
            k = np.minimum(u.astype(int), count - 1)
            frac, x, y = u - k, cx[k], cy[k]
            return x + frac * (cx[k + 1] - x), y + frac * (cy[k + 1] - y)

        return cls._of_points(on_legs, 0.0, 1.0)

    @classmethod
    def concat(cls, curves: Sequence["ParameterizedCurve"]) -> "ParameterizedCurve":
        """Chain curves end to start over [0, len(curves)]."""
        if not curves:
            raise ValidationError("nothing to concatenate")
        for left, right in zip(curves, curves[1:]):
            p, q = left.end, right.start
            if abs(p[0] - q[0]) > 1e-9 or abs(p[1] - q[1]) > 1e-9:
                raise ValidationError("curves do not chain end to start")

        def on_pieces(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            k = np.clip(s.astype(int), 0, len(curves) - 1)
            frac = s - k
            x, y = np.empty_like(s), np.empty_like(s)
            for j, seg in enumerate(curves):
                on = k == j
                x[on], y[on] = seg.points(seg.s0 + frac[on] * (seg.s1 - seg.s0))
            return x, y

        return cls._of_points(on_pieces, 0.0, float(len(curves)))


@dataclass(frozen=True)
class EdgeQuadratureRule:
    """Step count with a hard parity tag: even steps keep det +1, odd flip it."""

    parity: str = "even"
    steps: int = REFERENCE_STEPS

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValidationError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.steps < 2:
            raise ValidationError("need at least two steps")
        if self.steps % 2 != (0 if self.parity == "even" else 1):
            raise ParityError(
                f"step count {self.steps} does not have {self.parity} parity"
            )

    def refined(self) -> "EdgeQuadratureRule":
        """Roughly doubled step count of the same parity."""
        steps = 2 * self.steps + (1 if self.parity == "odd" else 0)
        return EdgeQuadratureRule(self.parity, steps)


# Steps sampled, checked and folded together. A block is large enough to
# spread the cost of its numpy calls and small enough that the samples of a
# long product never sit in memory all at once.
_BLOCK = 1024


def _involution_stack(a, b, c) -> np.ndarray:
    """The matrices [[a, b], [c, -a]] of the columns a, b and c."""
    stack = np.empty((len(a), 2, 2), np.result_type(a, b, c))
    stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1] = a, b, c, -a
    return stack


def _samples(field: InvolutionField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The checked field matrices at the points (xs, ys), as a stack.

    If any point leaves the domain, makes the evaluator raise or breaks
    bc = 1 - a**2, the points are taken again one by one through ``field``,
    so the first failing point raises its own error, as in a step-by-step
    loop.
    """
    try:
        inside = field.contains(xs, ys)
        if not inside.all():
            i = int(inside.argmin())
            raise field.domain_error(float(xs[i]), float(ys[i]))
        a, b, c = field.components(xs, ys)
        check_quadric(a, b, c, field.tol)
    except Exception:
        for x, y in zip(xs.tolist(), ys.tolist()):
            field(x, y)
        raise
    return _involution_stack(a, b, c)


def _fold(field: InvolutionField, jobs: Sequence[tuple]) -> list[np.ndarray]:
    """The products of _p_integrals, all at once; any failure raises."""
    from functools import reduce

    rules = [EdgeQuadratureRule(parity, n) for _, n, parity in jobs]
    # Longest first, so the products still running are always a prefix.
    order = sorted(range(len(jobs)), key=lambda j: -rules[j].steps)
    runs = [(jobs[j][0], rules[j].steps) for j in order]
    longest = runs[0][1] if runs else 0
    buf = np.empty((min(_BLOCK, longest), len(runs), 2, 2))
    acc = np.array([np.eye(2)] * len(runs))
    done = [None] * len(runs)
    for lo in range(0, longest, _BLOCK):
        hi = min(lo + _BLOCK, longest)
        for j, (curve, n) in enumerate(runs[: sum(n > lo for _, n in runs)]):
            h = (curve.s1 - curve.s0) / n
            s = curve.s0 + (np.arange(lo, min(hi, n)) + 0.5) * h
            try:
                xs, ys = curve.points(s)
            except Exception:
                # The step-by-step loop: the first failing step raises.
                for v in s.tolist():
                    field(*curve.point(v))
                raise
            stack = _samples(field, xs, ys)
            if np.result_type(buf, stack) != buf.dtype:
                if len(runs) > 1:
                    raise TypeError("the lockstep fold takes real samples only")
                buf = buf.astype(np.result_type(buf, stack))
            buf[: len(s), j] = stack
        k = lo
        while k < hi:
            live = sum(n > k for _, n in runs)
            # Products that ended at step k leave the stack.
            done[live : len(acc)], acc = acc[live:], acc[:live]
            block = buf[k - lo : min(hi, runs[live - 1][1]) - lo, :live]
            if live == 1:
                # np.dot is the gemm of acc @ m, with less dispatch.
                acc = reduce(np.dot, block[:, 0], acc[0])[np.newaxis]
            else:
                acc = reduce(np.matmul, block, acc)
            k += len(block)
    done[: len(acc)] = acc
    by_job = dict(zip(order, done))
    return [by_job[j] for j in range(len(jobs))]


def _p_integrals(field: InvolutionField, jobs: Sequence[tuple]) -> Iterator[np.ndarray]:
    """The p-integrals of (curve, n, parity) jobs, in job order.

    Each block of _BLOCK steps samples every running product into one
    reused (_BLOCK, m, 2, 2) buffer. The running products fold in lockstep,
    one np.matmul per step on the stack, and a lone product with np.dot.
    Each product gets the same acc @ m calls in the same order as on its
    own, and none is padded with the identity: acc @ I can turn -0.0 into
    +0.0.

    If anything fails, or a block of several products is not real, the
    jobs run again one at a time as the iterator is read, so the first
    failing job raises its own error where a loop of p_integral calls
    would raise it.
    """
    try:
        return iter(_fold(field, jobs))
    except Exception:
        if len(jobs) == 1:
            raise
    return (next(_p_integrals(field, [job])) for job in jobs)


def p_integral(
    field: InvolutionField,
    curve: ParameterizedCurve,
    n: int,
    parity: str,
) -> np.ndarray:
    """Ordered product of field samples at midpoints of n equal steps.

    The factors multiply left to right in the direction the curve runs,
    so reversing the curve yields the inverse product exactly. Each block
    of midpoints is sampled, tested against the domain, evaluated and
    checked as arrays; the fold stays one 2x2 product per step, which keeps
    every product bit for bit the same as a step-by-step loop. The first
    failing step raises, as in that loop.
    """
    return next(_p_integrals(field, [(curve, n, parity)]))


@dataclass(frozen=True)
class ConvergenceReport:
    """P-integral at a resolution and at roughly double the steps."""

    value: np.ndarray
    refined: np.ndarray
    steps: int
    refined_steps: int
    difference: float


def convergence_report(
    field: InvolutionField,
    curve: ParameterizedCurve,
    n: int,
    parity: str,
) -> ConvergenceReport:
    rule = EdgeQuadratureRule(parity, n)
    fine = rule.refined()
    coarse, refined = _p_integrals(
        field, [(curve, rule.steps, parity), (curve, fine.steps, parity)]
    )
    return ConvergenceReport(
        value=coarse,
        refined=refined,
        steps=rule.steps,
        refined_steps=fine.steps,
        difference=float(np.abs(coarse - refined).max()),
    )


# -- infinitesimal potentiality ------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Central-difference estimate of A*A_xy + A_y*A_x at a point."""

    point: Point
    h: float
    matrix: np.ndarray
    norm: float


def _residuals(field: InvolutionField, xs: np.ndarray, ys: np.ndarray, h: float) -> np.ndarray:
    """The residual matrices at the points (xs, ys), as a stack.

    The nine stencil points of every point are sampled in one call, point
    by point in the order of the formulas, with xs and ys themselves at the
    zero offsets so that -0.0 stays -0.0. Errors come as from a loop over
    the points: one closer than h to the domain edge raises after the
    points before it are sampled, and the first failing sample raises.
    """
    inside = field.contains(xs, ys, margin=h)
    if not inside.all():
        i = int(inside.argmin())
        if i:
            _residuals(field, xs[:i], ys[:i], h)
        raise FieldDomainError(
            f"point ({xs[i].item()!r}, {ys[i].item()!r}) does not keep margin {h!r} "
            "inside the domain"
        )
    m = _samples(
        field,
        np.stack([xs + h, xs - h, xs, xs, xs + h, xs + h, xs - h, xs - h, xs], 1).ravel(),
        np.stack([ys, ys, ys + h, ys - h, ys + h, ys - h, ys + h, ys - h, ys], 1).ravel(),
    ).reshape(-1, 9, 2, 2)
    a_x = (m[:, 0] - m[:, 1]) / (2.0 * h)
    a_y = (m[:, 2] - m[:, 3]) / (2.0 * h)
    a_xy = (m[:, 4] - m[:, 5] - m[:, 6] + m[:, 7]) / (4.0 * h * h)
    return m[:, 8] @ a_xy + a_y @ a_x


def infinitesimal_residual(
    field: InvolutionField, point: Point, h: float
) -> ResidualReport:
    x, y = point
    if h <= 0:
        raise ValidationError("step h must be positive")
    res = _residuals(field, np.array([x]), np.array([y]), h)[0]
    return ResidualReport(point=(x, y), h=h, matrix=res, norm=float(np.abs(res).max()))


def residual_orders(
    field: InvolutionField, point: Point, hs: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Residual norms over the h ladder and log2 ratios of neighbors."""
    norms = tuple(infinitesimal_residual(field, point, h).norm for h in hs)
    orders = []
    for n0, n1, h0, h1 in zip(norms, norms[1:], hs, hs[1:]):
        if n1 == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(math.log(n0 / n1) / math.log(h0 / h1))
    return norms, tuple(orders)


# -- plane sections of the involution quadric ----------------------------------


@dataclass(frozen=True)
class PlaneCoefficients:
    """Coefficients of the cutting plane 2*a*C1 + c*C2 + b*C3 = 0.

    Entries are numbers for a fixed plane or single-variable functions for
    the y-dependent reduction.
    """

    c1: object
    c2: object
    c3: object

    def __post_init__(self) -> None:
        if self.is_constant() and not any(
            abs(float(v)) > 0.0 for v in (self.c1, self.c2, self.c3)
        ):
            raise ValidationError("plane coefficients must not all vanish")

    def is_constant(self) -> bool:
        return not any(callable(v) for v in (self.c1, self.c2, self.c3))

    def at(self, y: float) -> tuple[float, float, float]:
        return tuple(
            float(v(y)) if callable(v) else float(v)
            for v in (self.c1, self.c2, self.c3)
        )

    def constants(self) -> tuple[float, float, float]:
        if not self.is_constant():
            raise ValidationError("plane coefficients are functions, not constants")
        return (float(self.c1), float(self.c2), float(self.c3))


@dataclass(frozen=True)
class ConicSectionFamily:
    """Parameterized intersection of the quadric with a plane.

    Each branch maps a real parameter to an on-section triple (a, b, c);
    closed families are 2*pi periodic.
    """

    kind: str
    coefficients: tuple[float, float, float]
    branches: tuple[Callable[[float], tuple[float, float, float]], ...]
    closed: bool
    l_param: float | None = None

    def point(self, t: float, branch: int = 0) -> tuple[float, float, float]:
        return self.branches[branch](t)

    def matrix(self, t: float, branch: int = 0) -> InvolutionMatrix:
        a, b, c = self.point(t, branch)
        return InvolutionMatrix(a, b, c, tol=1e-6)

    def plane_defect(self, t: float, branch: int = 0) -> float:
        a, b, c = self.point(t, branch)
        c1, c2, c3 = self.coefficients
        return abs(2.0 * a * c1 + c * c2 + b * c3)


def plane_section_solution(plane: PlaneCoefficients) -> ConicSectionFamily:
    """Closed-form parameterization of {a**2+bc=1} cut by the plane.

    Classification: with C1 = 0 the section is the cosh/sinh family for
    C2*C3 > 0 and the cos/sin family for C2*C3 < 0; with C1 != 0 the
    conic obtained by eliminating one off-diagonal variable is split into
    elliptic and hyperbolic cases by its determinant.  A vanishing conic
    determinant (C2*C3 + C1**2 = 0) degenerates into lines and raises.
    """
    c1, c2, c3 = plane.constants()
    scale = max(abs(c1), abs(c2), abs(c3))
    tol = 1e-12 * scale

    if abs(c2 * c3 + c1 * c1) <= tol * scale:
        raise DegeneratePlaneError(
            f"plane ({c1!r}, {c2!r}, {c3!r}) meets the quadric in degenerate lines"
        )

    if abs(c1) <= tol:
        if c2 * c3 > 0.0:
            beta = math.sqrt(c2 / c3)

            def upper(t: float):
                return (math.cosh(t), beta * math.sinh(t), -math.sinh(t) / beta)

            def lower(t: float):
                return (-math.cosh(t), beta * math.sinh(t), -math.sinh(t) / beta)

            return ConicSectionFamily(
                "hyperbolic", (c1, c2, c3), (upper, lower), closed=False
            )
        beta = math.sqrt(-c2 / c3)

        def circle(t: float):
            return (math.cos(t), beta * math.sin(t), math.sin(t) / beta)

        return ConicSectionFamily(
            "elliptic", (c1, c2, c3), (circle,), closed=True
        )

    if abs(c2) <= tol and abs(c3) <= tol:
        # Plane a = 0; the section is the reciprocal hyperbola bc = 1.
        def plus(t: float):
            return (0.0, math.exp(t), math.exp(-t))

        def minus(t: float):
            return (0.0, -math.exp(t), -math.exp(-t))

        return ConicSectionFamily(
            "reciprocal", (c1, c2, c3), (plus, minus), closed=False
        )

    if abs(c2) <= tol:
        # c is the free variable; the plane ties b to a directly.
        ratio = c3 / (2.0 * c1)

        def make(sign: float):
            def branch(t: float):
                a = sign * math.exp(t)
                b = -a / ratio
                c = (1.0 - a * a) / b
                return (a, b, c)

            return branch

        return ConicSectionFamily(
            "rational",
            (c1, c2, c3),
            (make(1.0), make(-1.0)),
            closed=False,
            l_param=ratio,
        )

    # General position: substitute c = -(2*a*c1 + b*c3)/c2 into the quadric,
    # yielding c2*a**2 - 2*c1*a*b - c3*b**2 = c2, and diagonalize.
    m = np.array([[c2, -c1], [-c1, -c3]])
    eigvals, eigvecs = np.linalg.eigh(m)
    det_m = float(eigvals[0] * eigvals[1])

    def lift(u: float, v: float):
        a, b = eigvecs @ np.array([u, v])
        c = -(2.0 * a * c1 + b * c3) / c2
        return (float(a), float(b), float(c))

    if det_m > 0.0:
        r0 = math.sqrt(c2 / eigvals[0])
        r1 = math.sqrt(c2 / eigvals[1])

        def ellipse(t: float):
            return lift(r0 * math.cos(t), r1 * math.sin(t))

        return ConicSectionFamily(
            "ellipse", (c1, c2, c3), (ellipse,), closed=True
        )

    # Hyperbola: cosh rides the eigendirection whose eigenvalue matches
    # the sign of c2, sinh the other one.
    idx_cosh = 0 if c2 / eigvals[0] > 0.0 else 1
    idx_sinh = 1 - idx_cosh
    r_cosh = math.sqrt(c2 / eigvals[idx_cosh])
    r_sinh = math.sqrt(-c2 / eigvals[idx_sinh])

    def make_branch(sign: float):
        def branch(t: float):
            uv = [0.0, 0.0]
            uv[idx_cosh] = sign * r_cosh * math.cosh(t)
            uv[idx_sinh] = r_sinh * math.sinh(t)
            return lift(uv[0], uv[1])

        return branch

    return ConicSectionFamily(
        "hyperbola",
        (c1, c2, c3),
        (make_branch(1.0), make_branch(-1.0)),
        closed=False,
    )


# -- reduction to an ordinary differential equation in y ------------------------


def plane_rhs(plane: PlaneCoefficients, y: float) -> np.ndarray:
    """Right-hand side C(y) = [[0, C2(y)], [C3(y), 0]] of A*A_y = C."""
    _, c2, c3 = plane.at(y)
    return np.array([[0.0, c2], [c3, 0.0]])


def solve_ode_field(
    plane: PlaneCoefficients,
    r_func: Callable[[float], float],
    domain=UNIT_SQUARE,
) -> InvolutionField:
    """Field A(t(x, y)) with t = sign(C2) * integral of sqrt|C2*C3| dy + R(x).

    The canonical family matching the sign of C2*C3 makes A*A_y equal the
    plane matrix C(y) with A anti-commuting with C.  The product C2*C3
    must keep one sign over the y range; the construction is checked by
    finite differences on a sample grid.
    """
    from scipy import integrate

    (x0, x1), (y0, y1) = domain
    ys = np.linspace(y0, y1, 101)
    prods = [plane.at(float(y))[1] * plane.at(float(y))[2] for y in ys]
    if any(p == 0.0 for p in prods) or (min(prods) < 0.0 < max(prods)):
        raise ValidationError(
            "C2*C3 changes sign (or vanishes) on the y range; "
            "the reduction needs one constant sign"
        )
    hyperbolic = prods[0] > 0.0

    def integrand(s: float) -> float:
        _, c2, c3 = plane.at(s)
        return math.copysign(math.sqrt(abs(c2 * c3)), c2)

    def t_func(x: float, y: float) -> float:
        val, err = integrate.quad(integrand, y0, y, limit=200)
        if not math.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
            raise ValidationError(f"quadrature failed at y = {y!r} (err {err:.2e})")
        return val + float(r_func(x))

    def components(x: float, y: float):
        t = t_func(x, y)
        _, c2, c3 = plane.at(y)
        if hyperbolic:
            beta = math.sqrt(c2 / c3)
            return (math.cosh(t), beta * math.sinh(t), -math.sinh(t) / beta)
        beta = math.sqrt(-c2 / c3)
        return (math.cos(t), beta * math.sin(t), math.sin(t) / beta)

    field = InvolutionField(components, domain, name="ode-solution")
    field.t_function = t_func
    field.rhs = lambda y: plane_rhs(plane, y)

    h = 1e-5
    for x in np.linspace(x0 + 0.1 * (x1 - x0), x1 - 0.1 * (x1 - x0), 3):
        for y in np.linspace(y0 + 0.1 * (y1 - y0), y1 - 0.1 * (y1 - y0), 3):
            a = field.matrix_at(float(x), float(y))
            a_y = (
                field.matrix_at(float(x), float(y) + h)
                - field.matrix_at(float(x), float(y) - h)
            ) / (2.0 * h)
            lhs = a @ a_y
            rhs = plane_rhs(plane, float(y))
            if np.abs(lhs - rhs).max() > 1e-4 * max(1.0, np.abs(rhs).max()):
                raise ValidationError(
                    "A*A_y deviates from C(y); the coefficient ratio "
                    "C2/C3 must not vary over y"
                )
    return field


# -- discretization onto an embedded graph --------------------------------------


@dataclass(frozen=True)
class GraphEmbedding:
    """Node coordinates plus one curve per undirected edge."""

    graph: RelationGraph
    coordinates: tuple[Point, ...]
    curves: Mapping[tuple[int, int], ParameterizedCurve]

    def curve(self, i: int, j: int) -> ParameterizedCurve:
        if (i, j) in self.curves:
            return self.curves[(i, j)]
        return self.curves[(j, i)].reversed()

    @classmethod
    def straight(
        cls, graph: RelationGraph, coordinates: Sequence[Point]
    ) -> "GraphEmbedding":
        if len(coordinates) != len(graph):
            raise ValidationError("one coordinate pair per node is required")
        coords = tuple((float(x), float(y)) for x, y in coordinates)
        curves = {
            (i, j): ParameterizedCurve.line(coords[i], coords[j])
            for i, j in graph.undirected_edges
        }
        return cls(graph, coords, curves)


def load_embedding(
    source, graph: RelationGraph
) -> tuple[GraphEmbedding, dict[tuple[int, int], EdgeQuadratureRule]]:
    """Read an embedding for ``graph`` from JSON (path, string or dict).

    Shape::

        {"nodes": {"1": [0.05, 0.05], ...},
         "edges": [{"from": "1", "to": "2",
                    "polyline": [[x, y], ...],      # optional, default straight
                    "parity": "even",                # optional
                    "steps": 1024}, ...]}            # optional integer

    Edges absent from the list get a straight segment and the default rule.
    Polylines must start and end on the declared node coordinates.
    """
    payload = read_json(source, "embedding")
    if "nodes" not in payload:
        raise ValidationError("embedding is missing 'nodes'")

    by_label = label_texts(graph.nodes, "embedding")
    raw_nodes = payload["nodes"]
    if not isinstance(raw_nodes, dict):
        raise ValidationError("embedding 'nodes' must be an object of node coordinates")
    edge_entries = payload.get("edges", [])
    if not isinstance(edge_entries, list) or not all(isinstance(e, dict) for e in edge_entries):
        raise ValidationError("embedding 'edges' must be a list of objects")
    coords: list[Point | None] = [None] * len(graph)
    for key, xy in raw_nodes.items():
        if key not in by_label:
            raise ValidationError(f"embedding names unknown node {key!r}")
        coords[by_label[key]] = _point(xy, f"embedding node {key!r}")
    missing = [graph.nodes[i] for i, c in enumerate(coords) if c is None]
    if missing:
        raise ValidationError(f"embedding misses coordinates for {missing}")

    curves: dict[tuple[int, int], ParameterizedCurve] = {}
    rules: dict[tuple[int, int], EdgeQuadratureRule] = {}
    for entry in edge_entries:
        try:
            i = by_label[label_text(entry["from"])]
            j = by_label[label_text(entry["to"])]
        except KeyError as exc:
            raise ValidationError(f"embedding edge references {exc}") from exc
        if not graph.has_edge(i, j):
            raise ValidationError(
                f"embedding edge ({entry['from']!r}, {entry['to']!r}) "
                "is not in the graph"
            )
        if (i, j) in curves or (j, i) in curves:
            raise ValidationError(
                f"embedding edge ({entry['from']!r}, {entry['to']!r}) is listed twice"
            )
        if "polyline" in entry:
            points = entry["polyline"]
            curve = ParameterizedCurve.polyline(points)
            for end, coord in ((points[0], coords[i]), (points[-1], coords[j])):
                if max(abs(end[0] - coord[0]), abs(end[1] - coord[1])) > 1e-9:
                    raise ValidationError(
                        f"polyline for ({entry['from']!r}, {entry['to']!r}) "
                        "does not join its node coordinates"
                    )
        else:
            curve = ParameterizedCurve.line(coords[i], coords[j])
        curves[(i, j)] = curve
        steps = entry.get("steps", REFERENCE_STEPS)
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise ValidationError(
                f"embedding edge ({entry['from']!r}, {entry['to']!r}) steps "
                f"must be an integer, got {steps!r}"
            )
        rules[(i, j)] = EdgeQuadratureRule(
            parity=entry.get("parity", "even"), steps=steps
        )

    for i, j in graph.undirected_edges:
        if (i, j) not in curves and (j, i) not in curves:
            curves[(i, j)] = ParameterizedCurve.line(coords[i], coords[j])
            rules[(i, j)] = EdgeQuadratureRule()
    embedding = GraphEmbedding(graph, tuple(coords), curves)
    return embedding, rules


def valid_parity_assignment(
    graph: RelationGraph, parities: Mapping[tuple[int, int], str]
) -> bool:
    """Every cycle must cross an even number of odd-tagged edges.

    Odd edges must form a cut, which is the same two-coloring feasibility
    check used for balance partitions.
    """
    signs = {}
    for i, j in graph.directed_edges:
        key = (i, j) if (i, j) in parities else (j, i)
        if key not in parities:
            raise ValidationError(f"edge ({i}, {j}) has no parity tag")
        signs[(i, j)] = -1 if parities[key] == "odd" else 1
    return partition_from_signs(graph, signs) is not None


@dataclass(frozen=True)
class MatrixMarking:
    """Edge matrices produced by discretizing a field along an embedding."""

    graph: RelationGraph
    marks: Mapping[tuple[int, int], np.ndarray]
    signs: Mapping[tuple[int, int], int]
    potential_ok: bool
    max_defect: float

    def mark(self, i: int, j: int) -> np.ndarray:
        return self.marks[(i, j)]


def _matrix_consistency(graph: RelationGraph, marks, tol: float):
    edges = [
        (i, j, marks[(i, j)], marks[(j, i)]) for i, j in graph.directed_edges
    ]
    u, witness = _tree_consistency(
        range(len(graph)),
        edges,
        0,
        np.eye(2),
        lambda a, b: a @ b,
        lambda a, b: bool(np.abs(a - b).max() <= tol),
    )
    if witness is not None:
        return False, float("nan")
    defect = 0.0
    for i, j in graph.directed_edges:
        defect = max(defect, float(np.abs(u[i] @ marks[(i, j)] - u[j]).max()))
    return True, defect


def discretize(
    field: InvolutionField,
    embedding: GraphEmbedding,
    rules: Mapping[tuple[int, int], EdgeQuadratureRule] | EdgeQuadratureRule | None = None,
    tol: float = TAU_NUM,
) -> MatrixMarking:
    """Per-edge path-ordered products as matrix marks on the graph.

    Odd-tagged edges must form a cut (every cycle sees an even number of
    them) and the field must pass a residual spot check on a 4 x 4 grid,
    otherwise the cycle products could not come back to the identity.
    """
    graph = embedding.graph
    if rules is None:
        rules = EdgeQuadratureRule()
    if isinstance(rules, EdgeQuadratureRule):
        rules = {edge: rules for edge in graph.undirected_edges}
    rule_of: dict[tuple[int, int], EdgeQuadratureRule] = {}
    for i, j in graph.undirected_edges:
        rule = rules.get((i, j)) or rules.get((j, i))
        if rule is None:
            raise ValidationError(f"edge ({i}, {j}) has no quadrature rule")
        rule_of[(i, j)] = rule

    parities = {edge: rule.parity for edge, rule in rule_of.items()}
    if not valid_parity_assignment(graph, parities):
        raise ParityError(
            "odd-tagged edges must form a cut: some cycle crosses an odd "
            "number of them"
        )

    (x0, x1), (y0, y1) = field.domain
    h = 1e-3
    xs = np.linspace(x0 + 2 * h, x1 - 2 * h, 4)
    ys = np.linspace(y0 + 2 * h, y1 - 2 * h, 4)
    norms = np.abs(_residuals(field, np.repeat(xs, 4), np.tile(ys, 4), h)).max(axis=(1, 2))
    # fmax passes over NaN norms.
    worst = float(np.fmax.reduce(norms, initial=0.0))
    if worst > 1e-4:
        raise NonPotentialError(
            f"field residual {worst:.3e} exceeds 1e-4; cycle products "
            "would not close up"
        )

    jobs = []
    for i, j in graph.undirected_edges:
        rule, curve = rule_of[(i, j)], embedding.curve(i, j)
        jobs += [(c, rule.steps, rule.parity) for c in (curve, curve.reversed())]
    products = _p_integrals(field, jobs)
    marks: dict[tuple[int, int], np.ndarray] = {}
    signs: dict[tuple[int, int], int] = {}
    for i, j in graph.undirected_edges:
        rule = rule_of[(i, j)]
        forward, backward = next(products), next(products)
        marks[(i, j)] = forward
        marks[(j, i)] = backward
        for key, mat in (((i, j), forward), ((j, i), backward)):
            det = float(np.linalg.det(mat))
            expected = 1.0 if rule.parity == "even" else -1.0
            if abs(det - expected) > tol:
                raise ValidationError(
                    f"edge {key} determinant {det:.9f} violates the parity law"
                )
            signs[key] = 1 if det > 0 else -1

    ok, defect = _matrix_consistency(graph, marks, tol)
    return MatrixMarking(
        graph=graph,
        marks=marks,
        signs=signs,
        potential_ok=ok,
        max_defect=defect,
    )


# -- projection onto a plane section ---------------------------------------------


def project_point_to_section(
    family: ConicSectionFamily, point: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Nearest point of the section in Euclidean (a, b, c) coordinates."""
    from scipy import optimize

    target = np.array(point, dtype=float)

    def gap(t: float, branch: int) -> float:
        return float(np.sum((np.array(family.point(t, branch)) - target) ** 2))

    best = None
    for branch in range(len(family.branches)):
        if family.closed:
            grid = np.linspace(0.0, 2.0 * math.pi, 97)
        else:
            grid = np.linspace(-8.0, 8.0, 97)
        coarse = min(grid, key=lambda t: gap(float(t), branch))
        step = float(grid[1] - grid[0])
        res = optimize.minimize_scalar(
            lambda t: gap(t, branch),
            bounds=(coarse - step, coarse + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        cand = (float(res.fun), float(res.x), branch)
        if best is None or cand < best:
            best = cand
    _, t_best, branch_best = best
    return family.point(t_best, branch_best)


def project_to_plane(
    field: InvolutionField, plane: PlaneCoefficients
) -> InvolutionField:
    """Pointwise nearest-point repair of a field onto a plane section."""
    family = plane_section_solution(plane)

    def components(x: float, y: float):
        inv = field(x, y)
        return project_point_to_section(family, (inv.a, inv.b, inv.c))

    return InvolutionField(
        components, field.domain, tol=1e-6, name=f"projected({field.name})"
    )
