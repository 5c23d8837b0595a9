"""Piecewise function representation, algebra, and exact envelopes."""

import random
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations

import pytest

from infocost import PiecewiseScalarFunction, lower_envelope, upper_envelope
from infocost.piecewise import line_envelope, minimum_of_sum


def random_affine_pwl(rng: random.Random) -> PiecewiseScalarFunction:
    kinks = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 3))})
    xs = [F(0)] + [k for k in kinks if 0 < k < 1] + [F(1)]
    ys = [F(rng.randint(-12, 12), 6) for _ in xs]
    return PiecewiseScalarFunction.from_points(list(zip(xs, ys)))


def random_quadratic_pwl(rng: random.Random) -> PiecewiseScalarFunction:
    """A random affine-segmented function plus a quadratic: every segment
    is a quadratic with one shared leading coefficient."""
    quad = PiecewiseScalarFunction.quadratic(
        F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 2), F(rng.randint(-2, 2))
    )
    return random_affine_pwl(rng) + quad


def segment_at(fn: PiecewiseScalarFunction, z) -> tuple:
    """The coefficients of ``fn``'s segment holding ``z``, the one to its
    right at a breakpoint (the last one at 1), found by bisection: no code
    shared with the package's sweeps."""
    i = bisect_right(fn.breakpoints, z) - 1
    return fn.coefficients[min(i, len(fn.coefficients) - 1)]


def midpoint_sum(*terms) -> PiecewiseScalarFunction:
    """``sum(k * f for k, f in terms)`` as built by finding each function's
    segment at the midpoint of every merged interval: the reference for
    the merge walk of ``+``, ``-`` and unary ``-``."""
    xs = sorted({x for _, f in terms for x in f.breakpoints})
    coeffs = []
    for x1, x2 in zip(xs, xs[1:]):
        segs = [(k, segment_at(f, (x1 + x2) / 2)) for k, f in terms]
        coeffs.append(tuple(sum(k * seg[j] for k, seg in segs) for j in range(3)))
    return PiecewiseScalarFunction(breakpoints=tuple(xs), coefficients=tuple(coeffs))


def envelope_probes(fns) -> list[F]:
    """Every merged breakpoint of ``fns``, every crossing of two of their
    segments inside a merged interval, and the midpoint between each two
    consecutive such points. Between two consecutive probes every input is
    one line and no two lines cross, so the true envelope is one line
    there: found by brute force, sharing no code with the envelope walk."""
    xs = sorted({x for f in fns for x in f.breakpoints})
    points = set(xs)
    for x1, x2 in zip(xs, xs[1:]):
        lines = {segment_at(f, (x1 + x2) / 2)[1:] for f in fns}
        for (m1, c1), (m2, c2) in combinations(lines, 2):
            if m1 != m2:
                t = (c2 - c1) / (m1 - m2)
                if x1 < t < x2:
                    points.add(t)
    points = sorted(points)
    return points + [(a + b) / 2 for a, b in zip(points, points[1:])]


def assert_pointwise_envelope(env: PiecewiseScalarFunction, fns, pick) -> None:
    """``env`` is ``pick`` (min or max) of ``fns`` at every probe, kinks
    only at probes, so it is affine between probes and equal everywhere,
    and no two adjacent segments share coefficients."""
    probes = envelope_probes(fns)
    assert set(env.breakpoints) <= set(probes)
    for z in probes:
        assert env(z) == pick(f(z) for f in fns), z
    assert all(p != q for p, q in zip(env.coefficients, env.coefficients[1:]))


class TestConstruction:
    def test_domain_must_cover_unit_interval(self):
        with pytest.raises(ValueError):
            PiecewiseScalarFunction.from_points([(F(0), F(0)), (F(1, 2), F(1))])

    def test_discontinuity_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseScalarFunction(
                breakpoints=(F(0), F(1, 2), F(1)),
                coefficients=((F(0), F(0), F(0)), (F(0), F(0), F(5))),
            )

    def test_evaluation_outside_domain(self):
        fn = PiecewiseScalarFunction.constant(F(2))
        with pytest.raises(ValueError):
            fn(F(-1, 10))

    def test_values_at_matches_pointwise_calls(self):
        rng = random.Random(41)
        for trial in range(40):
            fn = (random_quadratic_pwl if trial % 2 else random_affine_pwl)(rng)
            xs = sorted([
                *fn.breakpoints,
                *fn.breakpoints[:2],
                *(F(rng.randint(0, 48), 48) for _ in range(10)),
            ])
            assert fn.values_at(xs) == [fn(x) for x in xs]
            assert fn.values_at(xs[-1:]) == [fn(xs[-1])]
        assert fn.values_at([]) == []

    def test_values_at_raises_like_call(self):
        fn = random_affine_pwl(random.Random(3))
        for xs, bad in (
            ([F(-1, 10), F(1, 2)], F(-1, 10)),
            ([F(0), F(1, 2), F(11, 10)], F(11, 10)),
        ):
            with pytest.raises(ValueError) as call:
                fn(bad)
            with pytest.raises(ValueError) as sweep:
                fn.values_at(xs)
            assert str(sweep.value) == str(call.value)
        with pytest.raises(ValueError, match="nondecreasing"):
            fn.values_at([F(1, 2), F(1, 4), F(3, 4)])

    def test_minimum_includes_a_convex_segments_stationary_point(self):
        assert PiecewiseScalarFunction.quadratic(F(1), F(-1), F(0)).minimum() == F(-1, 4)
        assert PiecewiseScalarFunction.quadratic(F(-1), F(1), F(0)).minimum() == F(0)
        # the stationary point 3/2 of z^2 - 3z lies outside [0, 1]
        assert PiecewiseScalarFunction.quadratic(F(1), F(-3), F(0)).minimum() == F(-2)
        rng = random.Random(43)
        for _ in range(20):
            fn = random_affine_pwl(rng)
            assert fn.minimum() == min(fn(x) for x in fn.breakpoints)

    def test_from_points_rejects_a_repeated_x(self):
        with pytest.raises(ValueError, match="repeated breakpoint 1/2"):
            PiecewiseScalarFunction.from_points(
                [(F(0), F(0)), (F(1, 2), F(1)), (F(1, 2), F(2)), (F(1), F(0))]
            )

    def test_from_points_and_line_envelope_divide_in_fractions(self):
        """Any mix of ``int`` and ``Fraction`` points or lines gives the
        same exact function or envelope as all-``Fraction`` ones."""
        for points in ([(0, 0), (1, -1)], [(0, F(1, 3)), (F(1, 3), 2), (1, 0)],
                       [(F(0), 1), (F(2, 3), F(0)), (1, 3)]):
            fn = PiecewiseScalarFunction.from_points(points)
            exact = PiecewiseScalarFunction.from_points([(F(x), F(y)) for x, y in points])
            assert fn == exact
            assert all(type(v) in (F, int) for seg in fn.coefficients for v in seg)
        lines = [(4, -2), (0, -1), (-4, 2)]
        pieces = line_envelope(lines, F(0), F(1))
        assert pieces == line_envelope([(F(m), F(c)) for m, c in lines], F(0), F(1))
        assert [x for x, _ in pieces] == [0, F(1, 4), F(3, 4)]
        assert [type(x) for x, _ in pieces] == [F, F, F]

    @pytest.mark.parametrize("breakpoints, coefficients", [
        ((F(0), 1.0), ((F(0), F(0), F(0)),)),
        ((F(0), F(1)), ((F(0), 0.5, F(0)),)),
        ((F(0), F(1)), ((F(0), F(0), True),)),
    ])
    def test_a_float_or_bool_breakpoint_or_coefficient_raises(self, breakpoints, coefficients):
        with pytest.raises(TypeError, match="not a Fraction or an int"):
            PiecewiseScalarFunction(breakpoints, coefficients)
        with pytest.raises(TypeError):
            PiecewiseScalarFunction.from_points([(F(0), 0.5), (F(1), F(0))])

    def test_from_points_interpolates(self):
        fn = PiecewiseScalarFunction.from_points(
            [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))]
        )
        assert fn(F(1, 4)) == F(1, 2)
        assert fn(F(3, 4)) == F(1, 2)
        assert fn(F(1, 2)) == F(1)


class TestAlgebra:
    def test_addition_merges_breakpoints(self):
        a = PiecewiseScalarFunction.from_points(
            [(F(0), F(0)), (F(1, 3), F(1)), (F(1), F(0))]
        )
        b = PiecewiseScalarFunction.from_points(
            [(F(0), F(1)), (F(2, 3), F(0)), (F(1), F(1))]
        )
        s = a + b
        assert set(s.breakpoints) == {F(0), F(1, 3), F(2, 3), F(1)}
        for z in [F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1)]:
            assert s(z) == a(z) + b(z)

    def test_negation_and_scaling(self):
        fn = PiecewiseScalarFunction.from_points([(F(0), F(2)), (F(1), F(-2))])
        assert (-fn)(F(1, 4)) == -fn(F(1, 4))
        assert (3 * fn)(F(1, 4)) == 3 * fn(F(1, 4))

    def test_merge_walk_sum_matches_the_midpoint_sum(self):
        rng = random.Random(37)
        shared = PiecewiseScalarFunction.from_points(
            [(F(0), F(1)), (F(1, 3), F(0)), (F(2, 3), F(2)), (F(1), F(1))]
        )
        pairs = [(shared, shared), (shared, PiecewiseScalarFunction.constant(F(3)))]
        for trial in range(60):
            make_a = random_quadratic_pwl if trial % 3 == 0 else random_affine_pwl
            make_b = random_quadratic_pwl if trial % 2 else random_affine_pwl
            pairs.append((make_a(rng), make_b(rng)))
        for a, b in pairs:
            for got, want in (
                (a + b, midpoint_sum((1, a), (1, b))),
                (b + a, midpoint_sum((1, b), (1, a))),
                (a - b, midpoint_sum((1, a), (-1, b))),
                (-a, midpoint_sum((-1, a))),
            ):
                assert got.breakpoints == want.breakpoints
                for seg, expected in zip(got.coefficients, want.coefficients, strict=True):
                    assert seg == expected
                    assert all(type(v) is F for v in seg)

    def test_sum_difference_and_negation_build_one_function(self, monkeypatch):
        """The weighted sum builds its result only: no negated operand."""
        rng = random.Random(39)
        f, g = random_quadratic_pwl(rng), random_affine_pwl(rng)
        built = []
        check = PiecewiseScalarFunction.__post_init__

        def counted(fn):
            built.append(fn)
            check(fn)

        monkeypatch.setattr(PiecewiseScalarFunction, "__post_init__", counted)
        for operation in (lambda: f - g, lambda: f + g, lambda: -f):
            result = operation()
            assert built == [result]
            built.clear()


class TestQuadratic:
    def test_quadratic_evaluation(self):
        fn = PiecewiseScalarFunction.quadratic(F(-1), F(1), F(0))
        assert fn(F(1, 2)) == F(1, 4)
        assert not fn.is_affine

    def test_slopes_rejected_for_quadratics(self):
        fn = PiecewiseScalarFunction.quadratic(F(-1), F(1), F(0))
        with pytest.raises(ValueError):
            fn.slopes()

    def test_derivative_at(self):
        fn = PiecewiseScalarFunction.quadratic(F(-1), F(1), F(0))
        assert fn.derivative_at(0, F(1, 2)) == F(0)
        assert fn.derivative_at(0, F(0)) == F(1)


class TestEnvelopes:
    def test_min_of_two_lines_crossing(self):
        up = PiecewiseScalarFunction.affine(F(1), F(0))
        down = PiecewiseScalarFunction.affine(F(-1), F(1))
        env = lower_envelope([up, down])
        assert env.breakpoints == (F(0), F(1, 2), F(1))
        assert env(F(1, 2)) == F(1, 2)
        assert env(F(0)) == F(0)
        assert env(F(1)) == F(0)

    def test_upper_envelope_of_menu_lines(self):
        lines = [
            PiecewiseScalarFunction.affine(F(-1, 2), F(1, 4)),
            PiecewiseScalarFunction.affine(F(0), F(1, 8)),
            PiecewiseScalarFunction.affine(F(1, 2), F(-1, 4)),
        ]
        env = upper_envelope(lines)
        assert env.breakpoints == (F(0), F(1, 4), F(3, 4), F(1))
        assert env(F(1, 2)) == F(1, 8)
        assert env(F(0)) == F(1, 4)

    def test_envelope_matches_pointwise_min_randomized(self):
        rng = random.Random(29)
        for _ in range(30):
            fns = [random_affine_pwl(rng) for _ in range(rng.randint(1, 4))]
            env = lower_envelope(fns)
            # dense probe: all breakpoints plus midpoints plus random points
            probes = set(env.breakpoints)
            for f in fns:
                probes.update(f.breakpoints)
            probes.update(F(rng.randint(0, 48), 48) for _ in range(20))
            probes.update(
                (a + b) / 2 for a, b in zip(sorted(probes), sorted(probes)[1:])
            )
            for z in probes:
                assert env(z) == min(f(z) for f in fns)

    def test_envelopes_match_the_brute_force_oracle(self):
        rng = random.Random(59)
        lists = [[random_affine_pwl(rng) for _ in range(rng.randint(1, 5))] for _ in range(150)]
        shared = random_affine_pwl(rng)
        lists += [[shared, shared], [shared, -shared], [shared, shared + shared]]
        for fns in lists:
            assert_pointwise_envelope(lower_envelope(fns), fns, min)
            assert_pointwise_envelope(upper_envelope(fns), fns, max)

    def test_tied_lines_do_not_break_the_walk(self):
        a = PiecewiseScalarFunction.affine(F(1), F(0))
        b = PiecewiseScalarFunction.affine(F(1), F(0))
        c = PiecewiseScalarFunction.affine(F(-1), F(1))
        d = PiecewiseScalarFunction.affine(F(-2), F(3, 2))
        # c and d cross the rising pair at 1/2 and 1/2 respectively
        env = lower_envelope([a, b, c, d])
        for z in [F(0), F(1, 4), F(1, 2), F(5, 8), F(3, 4), F(1)]:
            assert env(z) == min(f(z) for f in [a, b, c, d])

    @pytest.mark.parametrize("call", [
        lambda: minimum_of_sum(()), lambda: lower_envelope([]), lambda: upper_envelope([]),
    ], ids=["minimum_of_sum", "lower_envelope", "upper_envelope"])
    def test_no_function_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="need at least one function"):
            call()

    def test_envelope_requires_affine_segments(self):
        quad = PiecewiseScalarFunction.quadratic(F(1), F(0), F(0))
        line = PiecewiseScalarFunction.affine(F(0), F(0))
        with pytest.raises(ValueError):
            lower_envelope([quad, line])


def reference_eval(coeffs, z):
    """A segment's value Fraction by Fraction, in the Horner form the
    package first used: the reference for its integer evaluation."""
    a, b, c = coeffs
    return (a * z + b) * z + c


def reference_value(fn: PiecewiseScalarFunction, z):
    return reference_eval(segment_at(fn, z), z)


def reference_minimum(fn: PiecewiseScalarFunction):
    """The least ``reference_eval`` value at a breakpoint or at the
    stationary point of a convex segment inside its interval."""
    bps = fn.breakpoints
    values = [reference_eval(fn.coefficients[-1], bps[-1])]
    for x1, x2, seg in zip(bps, bps[1:], fn.coefficients):
        values.append(reference_eval(seg, x1))
        a, b, _ = seg
        if a > 0:
            x = F(-b) / (2 * a)
            if x1 < x < x2:
                values.append(reference_eval(seg, x))
    return min(values)


def exact(rng: random.Random, v):
    """``v`` as an ``int`` when it is integral and the draw says so."""
    return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v


def random_mixed_pwl(rng: random.Random) -> PiecewiseScalarFunction:
    """A continuous function of one to four segments, some quadratic, its
    breakpoints and coefficients a mix of ``int`` and ``Fraction``: each
    segment after the first meets its left neighbour's value."""
    den = rng.choice((1, 2, 3, 6, 7, 12))
    interior = sorted({F(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 3))})
    xs = [exact(rng, F(0)), *interior, exact(rng, F(1))]
    coeffs = []
    for x in xs[:-1]:
        a = F(rng.randint(-6, 6), den) if rng.random() < 0.4 else F(0)
        b = F(rng.randint(-12, 12), den)
        if coeffs:
            c = reference_eval(coeffs[-1], x) - a * x * x - b * x
        else:
            c = F(rng.randint(-12, 12), den)
        coeffs.append(tuple(exact(rng, v) for v in (a, b, c)))
    return PiecewiseScalarFunction(tuple(xs), tuple(coeffs))


def probe_points(rng: random.Random, *fns) -> list:
    """Every breakpoint of ``fns``, both ends as ``int`` and ``Fraction``,
    and interior points, sorted."""
    points = [0, F(0), 1, F(1), *(x for f in fns for x in f.breakpoints)]
    points += [F(rng.randint(1, 59), 60) for _ in range(8)]
    return sorted(points)


def no_float(value) -> bool:
    """``value`` holds no float, however nested in tuples, lists or functions."""
    if isinstance(value, PiecewiseScalarFunction):
        return no_float((value.breakpoints, value.coefficients))
    if isinstance(value, (tuple, list)):
        return all(no_float(v) for v in value)
    return type(value) in (F, int)


class TestIntegerEvaluation:
    """Every value is built from the integer numerators and denominators of
    the coefficients and the point; ``reference_eval`` is the Fraction-by-
    Fraction reference it must equal."""

    def functions(self, seed: int, count: int = 120) -> list[PiecewiseScalarFunction]:
        rng = random.Random(seed)
        fns = [random_mixed_pwl(rng) for _ in range(count)]
        fns += [random_affine_pwl(rng) for _ in range(20)]
        fns += [random_quadratic_pwl(rng) for _ in range(20)]
        fns.append(PiecewiseScalarFunction((0, 1), ((1, -1, 0),)))
        assert any(isinstance(v, int) for f in fns for seg in f.coefficients for v in seg)
        assert any(not f.is_affine for f in fns) and any(f.is_affine for f in fns)
        return fns

    def test_values_equal_the_reference(self):
        rng = random.Random(71)
        for fn in self.functions(71):
            points = probe_points(rng, fn)
            want = [reference_value(fn, z) for z in points]
            assert [fn(z) for z in points] == want
            assert fn.values_at(points) == want
            assert fn.breakpoint_values() == tuple(
                (x, reference_value(fn, x)) for x in fn.breakpoints
            )
            assert fn.minimum() == reference_minimum(fn)

    def test_every_value_is_exactly_a_fraction(self):
        """``values_at``, ``f(z)``, ``breakpoint_values`` and
        ``minimum_of_sum`` return a ``Fraction``, never an ``int``, also
        where the value is integral and the function's coefficients are
        ``int``s."""
        rng = random.Random(83)
        integral = 0
        for fn in self.functions(83, count=60):
            points = probe_points(rng, fn)
            values = [
                *fn.values_at(points),
                *(fn(z) for z in points),
                *(v for _, v in fn.breakpoint_values()),
                minimum_of_sum(((1, fn),)),
                minimum_of_sum(((2, fn), (-3, fn))),
            ]
            assert all(type(v) is F for v in values)
            integral += sum(v.denominator == 1 for v in values)
        assert integral > 100

    def test_algebra_equals_the_reference(self):
        rng = random.Random(73)
        fns = self.functions(73, count=60)
        for f, g in zip(fns, reversed(fns)):
            k = rng.choice((2, -3, F(5, 7), F(-1, 2)))
            points = probe_points(rng, f, g)
            for got, want in (
                (f + g, lambda z: reference_value(f, z) + reference_value(g, z)),
                (f - g, lambda z: reference_value(f, z) - reference_value(g, z)),
                (f * k, lambda z: k * reference_value(f, z)),
                (k * f, lambda z: k * reference_value(f, z)),
            ):
                assert got.values_at(points) == [want(z) for z in points]
                assert got.minimum() == reference_minimum(got)

    def test_continuity_check_rejects_exactly_the_discontinuous(self):
        """A coefficient moved by one over its denominator (or a ``1/7``
        that cannot cancel) is rejected exactly when the reference values
        of two neighbouring segments then differ at their breakpoint."""
        rng = random.Random(79)
        rejected = kept = 0
        for fn in self.functions(79):
            for _ in range(3):
                coeffs = [list(seg) for seg in fn.coefficients]
                i, j = rng.randrange(len(coeffs)), rng.randrange(3)
                v = coeffs[i][j]
                step = F(1, F(v).denominator)
                coeffs[i][j] = v + rng.choice((step, -step, F(1, 7)))
                if rng.random() < 0.3:  # the same move on the next segment too
                    if i + 1 < len(coeffs):
                        coeffs[i + 1][j] += coeffs[i][j] - v
                coeffs = tuple(tuple(seg) for seg in coeffs)
                xs = fn.breakpoints
                broken = any(
                    reference_eval(coeffs[m - 1], xs[m]) != reference_eval(coeffs[m], xs[m])
                    for m in range(1, len(xs) - 1)
                )
                if broken:
                    rejected += 1
                    with pytest.raises(ValueError, match="discontinuity at breakpoint"):
                        PiecewiseScalarFunction(xs, coeffs)
                else:
                    kept += 1
                    assert PiecewiseScalarFunction(xs, coeffs).coefficients == coeffs
        assert rejected > 100 and kept > 50

    def test_no_public_method_returns_a_float(self):
        """Any mix of ``int`` and ``Fraction`` breakpoints, coefficients,
        points and factors gives results with no float in them."""
        fn = PiecewiseScalarFunction((0, 1), ((1, -1, 0),))
        assert fn.minimum() == F(-1, 4) and type(fn.minimum()) is F
        assert (fn * 2).minimum() == F(-1, 2) and type((fn * 2).minimum()) is F
        rng = random.Random(83)
        fns = self.functions(83, count=60)
        for f, g in zip(fns, fns[1:]):
            points = probe_points(rng, f)
            k = rng.choice((2, -1, F(3, 2)))
            results = [
                [f(z) for z in points],
                f.values_at(points),
                f.minimum(),
                f.breakpoint_values(),
                [f.derivative_at(i, z) for i, z in enumerate(f.breakpoints[:-1])],
                [f.derivative_at(0, z) for z in (0, 1, F(1, 2))],
                f + g, f - g, f * k, k * f, -f,
            ]
            if f.is_affine:
                results.append(f.slopes())
            assert no_float(results), f
