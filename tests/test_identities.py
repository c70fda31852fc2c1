"""The identity family: weight table, transforms, theorem, corollaries, pipeline."""

import functools
import hashlib
import math
import pickle
from collections import Counter
from fractions import Fraction as F

import pytest

from hyperverify import (
    DenominatorPoleBeforeTermination,
    IdentityCase,
    InvalidCase,
    PoleError,
    UnsupportedJ,
    VerificationError,
    hyper,
    identities,
    suites,
    theorem_lhs,
    theorem_rhs,
    verify_theorem,
)
from hyperverify.hyper import series_in_z
from hyperverify.identities import (
    COEFF_TABLE,
    _weight_poly,
    _weight_terms,
    beta_moment,
    coeff_A,
    coeff_B,
    even_prefactor,
    gen_transform_lhs_series,
    gen_transform_rhs_series,
    grid_sweep,
    kummer_rhs_series,
    odd_prefactor,
)
from hyperverify.series import TruncatedSeries
from hyperverify.value import read_once
from series_oracle import (
    beta_integral_pipeline,
    binomial,
    compose,
    composed_transform_rhs,
    corollary_rhs,
    mobius_arg,
    spec,
)


def count_builds(monkeypatch, owner, name, calls, key):
    """Make the read_once owner.name append key(instance) to `calls`
    each time it builds its value; its caching stays its own."""
    prop = vars(owner)[name]
    build = prop.func

    def counted(self):
        calls.append(key(self))
        return build(self)

    monkeypatch.setattr(prop, "func", counted)


class TestWeightTable:
    def test_constant_rows(self):
        for b in (F(1, 3), F(-7, 5), 2):
            for n in (0, 1, 5):
                assert coeff_A(0, b, n) == 1
                assert coeff_B(0, b, n) == 0
                assert coeff_A(1, b, n) == -1
                assert coeff_B(1, b, n) == 1
                assert coeff_A(-1, b, n) == 1
                assert coeff_B(-1, b, n) == 1

    def test_spot_values(self):
        assert coeff_A(2, 1, 0) == -2
        assert coeff_B(-3, 1, 1) == -4
        assert coeff_A(5, 1, 0) == -20

    def test_unsupported_shift(self):
        with pytest.raises(UnsupportedJ):
            coeff_A(6, 1, 0)
        with pytest.raises(UnsupportedJ):
            coeff_B(-7, 1, 0)

    def test_interpolated_polynomials_match_rows(self):
        for j in COEFF_TABLE:
            for b in (F(1, 3), F(2, 7), F(-3, 5)):
                poly_a = _weight_poly(j, b, 0)
                poly_b = _weight_poly(j, b, 1)
                for n in range(13):
                    assert sum(c * n ** k for k, c in enumerate(poly_a)) == \
                        coeff_A(j, b, n)
                    assert sum(c * n ** k for k, c in enumerate(poly_b)) == \
                        coeff_B(j, b, n)

    def test_an_entry_of_any_degree_is_read_exactly(self, monkeypatch):
        # the read takes no samples, so no degree is too high for it
        monkeypatch.setitem(COEFF_TABLE, 3, (
            lambda b, n: n ** 7 - 3 * b ** 4 * n, COEFF_TABLE[3][1]))
        rows = _weight_terms(3, 0)
        assert (len(rows[0]) - 1, len(rows) - 1) == (4, 7)
        for b in (F(1, 3), F(-7, 5), 2):
            poly = _weight_poly(3, b, 0)
            for n in range(21):
                assert sum(c * n ** k for k, c in enumerate(poly)) == \
                    coeff_A(3, b, n)

    def test_an_entry_that_divides_is_refused(self, monkeypatch):
        # only +, -, * and ** with integer constants read as a polynomial
        # with integer coefficients
        monkeypatch.setitem(COEFF_TABLE, 3, (
            COEFF_TABLE[3][0], lambda b, n: (b + 2 * n) / 2))
        assert coeff_B(3, F(1, 3), 1) == F(7, 6)
        with pytest.raises(TypeError):
            _weight_poly(3, F(1, 3), 1)

    def test_degrees_of_the_table_as_tabulated(self):
        # (degree in b, degree in n) of A_j and B_j, read off the table:
        # none is above 2 in either symbol
        degrees = {}
        for j in COEFF_TABLE:
            for part, name in enumerate("AB"):
                rows = _weight_terms(j, part)
                degrees[name, j] = len(rows[0]) - 1, len(rows) - 1
        two, one, zero = (2, 2), (1, 1), (0, 0)
        assert degrees == {
            **{("A", j): two for j in (5, 4, -4, -5)},
            **{("A", j): one for j in (3, 2, -2, -3)},
            **{("A", j): zero for j in (1, 0, -1)},
            **{("B", j): two for j in (5, -5)},
            **{("B", j): one for j in (4, 3, -3, -4)},
            **{("B", j): zero for j in (2, 1, 0, -1, -2)},
        }


class TestPrefactors:
    def test_even_prefactor_values(self):
        b = F(1, 3)
        assert even_prefactor(0, b) == 1
        assert even_prefactor(1, b) == -1
        assert even_prefactor(2, b) == -1 / (b + 1)
        assert even_prefactor(-2, b) == 1 / (1 - b)
        assert even_prefactor(5, b) == -1 / ((b + 3) * (b + 4))

    def test_even_prefactor_times_weight_at_origin_is_one(self):
        # consistency anchor: at d = 0 the identity forces this product to 1
        for j in COEFF_TABLE:
            for b in (F(1, 3), F(2, 7)):
                assert even_prefactor(j, b) * coeff_A(j, b, 0) == 1

    def test_odd_prefactor_values(self):
        b = F(1, 3)
        assert odd_prefactor(1, b) == 1
        assert odd_prefactor(-1, b) == -1
        assert odd_prefactor(2, b) == -1

    def test_degenerate_prefactor_pole(self):
        with pytest.raises(PoleError):
            even_prefactor(-2, 1)

    def test_integer_b_takes_the_limit_of_the_rational_function(self):
        # At j = 3 the prefactors are 1/(b + 2) and -1/(b + 2).  At b = -1
        # the old four-Gamma form paired poles that move in opposite
        # directions and took the wrong sign, so these records failed.
        assert even_prefactor(3, -1) == 1
        assert odd_prefactor(3, -1) == -1
        [theorem] = grid_sweep((3,), (-3,), (-1,), (0,), (4,), ("theorem",))
        assert (theorem.lhs, theorem.rhs, theorem.status) == (1, 1, "passed")
        [transform] = grid_sweep((5,), (5,), (-2,), (), (), ("transform",))
        assert transform.status == "passed"


class TestKummer:
    def test_trivial_exponent(self):
        lhs = gen_transform_lhs_series(0, 0, F(1, 3), 8)
        rhs = kummer_rhs_series(0, F(1, 3), 8)
        assert lhs.coefficients == rhs.coefficients == (1,) + (0,) * 8

    def test_hand_expanded_case(self):
        lhs = gen_transform_lhs_series(0, -1, 1, 4)
        rhs = kummer_rhs_series(-1, 1, 4)
        assert lhs.coefficients == (1, 0, F(1, 3), 0, 0)
        assert lhs == rhs

    def test_generic_parameters(self):
        assert gen_transform_lhs_series(0, F(1, 4), F(1, 3), 16) == \
            kummer_rhs_series(F(1, 4), F(1, 3), 16)

    def test_collapse_of_shift_zero(self):
        a, b = F(-2), F(2, 7)
        assert gen_transform_rhs_series(0, a, b, 12) == kummer_rhs_series(a, b, 12)

    @pytest.mark.parametrize("right_side", [
        kummer_rhs_series,
        lambda a, b, order: gen_transform_rhs_series(0, a, b, order),
    ], ids=["kummer", "transform"])
    def test_right_side_pole_past_the_series_order(self, right_side):
        # The lower parameter b + 1/2 = -4 vanishes at term 5 with the
        # terms alive, and order 8 asks for terms 0..4 only: the legality
        # rule holds for the whole series, as on the left side.
        with pytest.raises(DenominatorPoleBeforeTermination,
                           match=r"^denominator parameter -4 vanishes at term 5$"):
            right_side(F(1, 4), F(-9, 2), 8)


class TestGenTransform:
    def test_negative_shift_case(self):
        assert gen_transform_lhs_series(-1, -1, F(1, 3), 6) == \
            gen_transform_rhs_series(-1, -1, F(1, 3), 6)

    def test_large_positive_shift(self):
        assert gen_transform_lhs_series(5, F(1, 4), F(1, 3), 24) == \
            gen_transform_rhs_series(5, F(1, 4), F(1, 3), 24)

    def test_unsupported_shift(self):
        with pytest.raises(UnsupportedJ):
            gen_transform_rhs_series(6, F(1, 4), F(1, 3), 4)

    @pytest.mark.parametrize("j", sorted(COEFF_TABLE))
    def test_left_side_matches_horner_composition(self, j):
        # The closed-form substitution against the direct expansion, Horner
        # composition at order 24.  Truncation is exact, so the oracle's
        # prefix of length n + 1 is the order-n left side for every n.
        order = 24
        for a in (F(1, 4), F(-2)):
            for b in (F(1, 3), F(2, 7), F(-1), F(3)):
                try:
                    core = series_in_z(spec((2 * a, b), (2 * b + j,)), order)
                except DenominatorPoleBeforeTermination:
                    with pytest.raises(DenominatorPoleBeforeTermination):
                        gen_transform_lhs_series(j, a, b, order)
                    continue
                oracle = binomial(2 * a, order) * compose(
                    core, mobius_arg(order)
                )
                for n in range(order + 1):
                    assert gen_transform_lhs_series(j, a, b, n).coefficients == \
                        oracle.coefficients[: n + 1]

    def test_left_side_past_the_canonical_order(self):
        # The summation table walks as many levels as the order asks, so
        # one case well past the canonical order 24 meets the oracle too.
        j, a, b, order = 3, F(1, 4), F(2, 7), 40
        core = series_in_z(spec((2 * a, b), (2 * b + j,)), order)
        oracle = binomial(2 * a, order) * compose(core, mobius_arg(order))
        assert gen_transform_lhs_series(j, a, b, order) == oracle

    def test_both_sides_at_the_order_cap(self):
        # Both sides at seriesOrder 256, pinned by the sha256 of their
        # coefficients as text (the sides agree at j = 3, so one digest),
        # and each held in its reduced form: the denominator is the lcm
        # of the coefficients' own denominators and shares no factor with
        # every numerator.  A series kept unreduced grows its integers
        # from operation to operation and costs about ten times as much.
        j, a, b, order = 3, F(1, 4), F(2, 7), 256
        for side in (gen_transform_lhs_series(j, a, b, order),
                     gen_transform_rhs_series(j, a, b, order)):
            text = ",".join(str(c) for c in side.coefficients)
            assert hashlib.sha256(text.encode()).hexdigest() == (
                "091ab7ed10d70f4be415693ab18fe327"
                "7fc0b17be060d08789627cf5c71acec5")
            assert side.denominator == math.lcm(
                *(c.denominator for c in side.coefficients))
            assert math.gcd(side.denominator, *side.numerators) == 1

    def test_right_side_reduced_once_matches_the_composition(self):
        # The right side adds its two scaled parts over one denominator
        # and reduces once; the old composition reduces each part, each
        # scaling and the sum.  They give the same series, or raise the
        # same error: at 2b + j = 0, the odd scale's pole, and at the
        # Gamma prefactors' poles at an integer b.  a = 0 has no odd
        # part, a = -m gives a polynomial, and j = 0 a dead odd weight.
        def outcome(build):
            try:
                return build()
            except VerificationError as err:
                return f"{type(err).__name__}: {err}"

        errors = Counter()
        for j in range(-5, 6):
            for a in (F(1, 4), F(0), F(-1, 2), F(-2), F(-3), F(5, 3)):
                for b in (F(1, 3), F(2, 7), F(-5, 2), F(-j, 2), F(-1),
                          F(0), F(3)):
                    for order in (0, 1, 12):
                        fused, composed = (
                            outcome(lambda: rhs(j, a, b, order))
                            for rhs in (gen_transform_rhs_series,
                                        composed_transform_rhs))
                        assert fused == composed, (j, a, b, order)
                        if type(fused) is str:
                            errors[fused.split(":")[0]] += 1
        assert set(errors) == {"DenominatorPoleBeforeTermination",
                               "PoleError"}
        # at a = -1/2 both parts end at term 0, so only the scale raises
        assert outcome(lambda: gen_transform_rhs_series(
            1, F(-1, 2), F(-1, 2), 12)) == (
            "DenominatorPoleBeforeTermination: denominator parameter 0")

    def test_parity_split(self):
        # even coefficients come only from the even part, odd only from the
        # odd part: zeroing one half must leave the other untouched
        j, a, b, order = 3, F(1, 4), F(2, 7), 12
        full = gen_transform_rhs_series(j, a, b, order)
        even_only = gen_transform_rhs_series(j, 0 * a, b, order)  # a=0 kills odd
        assert all(full[k] != 0 for k in (1, 3, 5))
        assert all(even_only[k] == 0 for k in range(1, order + 1, 2))

    def test_audit_finding_shift_minus_five(self):
        # The tabulated odd weight at j = -5 is inconsistent with the left
        # side: the first mismatch is at x^1 and the residual is a constant
        # +12 on the weight for every n.  The table is kept as tabulated and
        # the failure surfaces in the records; this test pins the finding.
        a, b, order = F(-2), F(1, 3), 10
        lhs = gen_transform_lhs_series(-5, a, b, order)
        rhs = gen_transform_rhs_series(-5, a, b, order)
        assert lhs != rhs
        mismatches = [k for k in range(order + 1) if lhs[k] != rhs[k]]
        assert mismatches and mismatches[0] == 1
        assert all(k % 2 == 1 for k in mismatches), "even part must be clean"

        original = COEFF_TABLE[-5]
        COEFF_TABLE[-5] = (original[0], lambda bb, n: original[1](bb, n) + 12)
        try:
            assert gen_transform_rhs_series(-5, a, b, order) == lhs
        finally:
            COEFF_TABLE[-5] = original


CANONICAL = IdentityCase(0, -1, 1, 1, 3)


class TestTheorem:
    def test_canonical_case_both_sides(self):
        # left: Gamma(3)Gamma(4)/(Gamma(5)Gamma(2)) * 3F2 = (1/2)(19/9)
        assert theorem_lhs(CANONICAL) == F(19, 18)
        assert theorem_rhs(CANONICAL) == F(19, 18)

    def test_zero_a_collapses_to_one(self):
        case = IdentityCase(2, 0, F(1, 3), F(1, 2), 4)
        assert theorem_lhs(case) == 1
        assert theorem_rhs(case) == 1

    def test_d_branch_case(self):
        # prefactor (e-2a)_1/(e)_1 = 5/6, two-term 3F2 = 11/10
        case = IdentityCase(1, F(1, 3), F(1, 2), -1, 4)
        assert theorem_lhs(case) == F(11, 12)
        assert theorem_rhs(case) == F(11, 12)

    def test_display_argument_variant_differs(self):
        assert theorem_lhs(CANONICAL, argument=1) == F(13, 18)

    def test_rhs_requires_a_terminating_branch(self):
        with pytest.raises(InvalidCase):
            theorem_rhs(IdentityCase(0, F(1, 3), F(1, 2), F(1, 5), 4))

    def test_verify_records_pole_as_error(self):
        rec = verify_theorem(IdentityCase(-2, -1, 1, 1, 3))
        assert rec.error is not None and "PoleError" in rec.error
        assert rec.status == "skipped"
        assert rec.lhs is None and rec.rhs is None

    def test_verify_equal_record(self):
        rec = verify_theorem(CANONICAL)
        assert rec.equal and rec.status == "passed"
        assert rec.lhs == rec.rhs == F(19, 18)
        assert rec.branch == "a"

    @pytest.mark.parametrize("field, value",
                             [("a", -1.0), ("b", 0.1), ("d", 1.0), ("e", 4.0)])
    def test_case_refuses_a_float(self, field, value):
        # 0.1 would be verified at its binary value, not at 1/10
        args = dict(j=1, a=-1, b=F(1, 3), d=1, e=4)
        args[field] = value
        with pytest.raises(TypeError, match=f"^{field} must be exact, not a float$"):
            IdentityCase(**args)

    @pytest.mark.parametrize("j", [1.0, True, F(1), "1"],
                             ids=["float", "bool", "Fraction", "str"])
    def test_case_refuses_a_shift_that_is_not_an_int(self, j):
        with pytest.raises(TypeError, match="^j must be an int, not "):
            IdentityCase(j, -1, F(1, 3), 1, 4)

    def test_odd_scale_pole_at_zero_lower_shift(self):
        # 2b + j = 0: the pole is the 2a/(2b+j) factor, not a term of a sum
        rec = verify_theorem(IdentityCase(1, F(-1, 2), F(-1, 2), -1, 4))
        assert rec.error == (
            "DenominatorPoleBeforeTermination: denominator parameter 0")

    def test_zero_e_is_rejected(self):
        case = IdentityCase(0, -1, F(1, 3), 1, 0)
        assert verify_theorem(case).error == "InvalidCase: e must be nonzero"
        # the corollary's own check, which a sweep runs before its left side
        with pytest.raises(InvalidCase, match="^e must be nonzero$"):
            corollary_rhs(case)


    @pytest.mark.parametrize("memo", [None, {}])
    def test_lower_parameter_pole_order(self, memo):
        # At (j, a, b, d, e) = (-3, -3, 1/2, 9/2, 1/2) both sides meet a
        # vanishing lower parameter.  The theorem record reports the
        # weighted side, which runs first and names the first parameter to
        # vanish as its terms are walked.  The corollary record reports the
        # left side's 3F2 (2a, b, d; 2b + j, 1 + 2a + d - e) = (-6, 1/2,
        # 9/2; -2, -1), whose legality rule names -1 too: it vanishes one
        # term before -2, which comes first in list order.
        job = (-3, F(-3), F(1, 2), F(9, 2), F(1, 2), None, F(2))
        records = [identities._evaluate_case((check,) + job, memo)
                   for check in ("theorem", "corollary")]
        prefix = "DenominatorPoleBeforeTermination: denominator parameter"
        assert [r.error for r in records] == [
            f"{prefix} -1 vanishes at term 2",
            f"{prefix} -1 vanishes at term 2",
        ]


class TestCorollaries:
    def test_shift_zero_form(self):
        assert corollary_rhs(CANONICAL) == F(19, 18)

    def test_second_series_killed_by_zero_a(self):
        assert corollary_rhs(IdentityCase(1, 0, F(1, 3), F(1, 2), 4)) == 1

    def test_agreement_with_weighted_path(self):
        case = IdentityCase(3, -1, F(1, 3), 1, 4)
        assert corollary_rhs(case) == theorem_rhs(case) == F(256, 385)

    def test_all_small_shifts_match_theorem(self):
        for j in range(-3, 4):
            case = IdentityCase(j, -2, F(2, 5), F(5, 2), F(13, 3))
            assert corollary_rhs(case) == theorem_rhs(case) == theorem_lhs(case)

    def test_no_closed_form_outside_small_shifts(self):
        for j in (4, -4, 5, -5):
            with pytest.raises(UnsupportedJ):
                corollary_rhs(IdentityCase(j, -1, F(1, 3), 1, 4))

    @pytest.mark.parametrize("j", [4, -5])
    def test_row_has_no_closed_form_outside_small_shifts(self, j):
        # the heads name each shift they cover and refuse the others,
        # rather than read them as j = -3, and at b = -j/2 too, where a
        # covered shift meets its scale's pole 2b + j = 0
        for b in (F(1, 3), F(-j, 2)):
            with pytest.raises(UnsupportedJ, match=(
                    rf"^shift j={j} not supported \(\|j\| must be <= 3\)$")):
                identities._Row(j, F(-1), b).corollary_heads

    def test_sweep_skips_large_shifts_before_the_left_side(self, monkeypatch):
        # The left side is summed from its memoized tail by the one sum
        # kernel; a skipped record reaches neither module-level helper.
        # The row's own members are the integer twin's below.
        def broken(*args, **kwargs):
            raise AssertionError("left side summed for a skipped record")

        for name in ("_lhs_tail", "_terminating_pair"):
            monkeypatch.setattr(identities, name, broken)
        records = grid_sweep((4, -5), (-1,), (F(1, 3),), (1, -2), (4, -3),
                             ("corollary",))
        assert [r.error for r in records] == [
            f"UnsupportedJ: shift j={j} not supported (|j| must be <= 3)"
            for j in (4, -5) for _ in range(4)
        ]

    def test_sweep_never_reads_the_weighted_path(self, monkeypatch):
        # The closed forms are the independent cross-check of the weighted
        # sums: with every module-level weighted-path helper broken, a
        # corollary sweep (and so the memo it shares with theorem_lhs)
        # still passes.  The moment tails are the column both right sides
        # read, and the sum kernel is the one both walk, so they stay.
        # The row's own members are the integer twin's below.
        def broken(*args, **kwargs):
            raise AssertionError("corollary reached the weighted path")

        for name in ("_weight_poly", "even_prefactor", "odd_prefactor",
                     "weighted_series"):
            monkeypatch.setattr(identities, name, broken)
        records = grid_sweep(
            range(-3, 4), (-1, -2), (F(1, 3), F(2, 5)),
            (F(1, 2), 1, -1, -2), (4, F(13, 3)), ("corollary",),
        )
        assert len(records) == 7 * 2 * 2 * 4 * 2
        assert all(r.status == "passed" for r in records), [
            r.error for r in records if r.status != "passed"
        ][:3]

    def test_sweep_tests_the_hypotheses_before_the_left_side(
            self, monkeypatch):
        # Outside the identity's hypotheses (neither a nor d a nonpositive
        # integer, or e = 0) a corollary record names the reason that the
        # theorem record at the same point names, and sums no left side
        # that could meet a pole or a transcendental Gamma ratio first.
        def broken(*args, **kwargs):
            raise AssertionError("left side summed outside the hypotheses")

        monkeypatch.setattr(identities._Row, "left", broken)
        for point, reason in [
            ((1, F(1, 3), F(1, 3), F(1, 2), 4),
             "neither a nor d is a nonpositive integer"),
            ((1, -1, F(1, 3), F(1, 2), 0), "e must be nonzero"),
        ]:
            reason = f"InvalidCase: {reason}"
            assert verify_theorem(IdentityCase(*point)).error == reason
            records = grid_sweep(*[(x,) for x in point], ("corollary",))
            assert [r.error for r in records] == [reason]

    def test_sweep_skips_large_shifts_before_the_integer_left_side(
            self, monkeypatch):
        # As above, one level up, with only the row's members broken: the
        # records read the left side as _Row.left on the row's head, and
        # a skipped record reaches neither.
        def broken(*args, **kwargs):
            raise AssertionError("left side summed for a skipped record")

        monkeypatch.setattr(identities._Row, "left", broken)
        monkeypatch.setattr(identities._Row, "lhs_head", property(broken))
        records = grid_sweep((4, -5), (-1,), (F(1, 3),), (1, -2), (4, -3),
                             ("corollary",))
        assert [r.error for r in records] == [
            f"UnsupportedJ: shift j={j} not supported (|j| must be <= 3)"
            for j in (4, -5) for _ in range(4)
        ]

    def test_sweep_never_reads_the_integer_weighted_path(self, monkeypatch):
        # As above, with only the row's members broken: its weighted
        # right side and the weighted invariants it caches stay unread.
        def broken(*args, **kwargs):
            raise AssertionError("corollary reached the weighted path")

        monkeypatch.setattr(identities._Row, "theorem_rhs_pair", broken)
        for name in ("part_heads", "even_scale", "odd_scale"):
            monkeypatch.setattr(identities._Row, name, property(broken))
        records = grid_sweep(
            range(-3, 4), (-1, -2), (F(1, 3), F(2, 5)),
            (F(1, 2), 1, -1, -2), (4, F(13, 3)), ("corollary",),
        )
        assert len(records) == 7 * 2 * 2 * 4 * 2
        assert all(r.status == "passed" for r in records)


class TestReadOnce:
    # A row's invariants, a column's tails and a series' coefficients are
    # read_once attributes: built at the first read, kept in the
    # instance's __dict__, and built again only where the build raised.
    @pytest.mark.parametrize("owner, name", [
        (identities._Row, name) for name in (
            "lhs_head", "part_heads", "even_scale", "odd_scale",
            "corollary_heads", "polynomial")] + [
        (identities._Column, "tails"), (TruncatedSeries, "coefficients")])
    def test_each_cache_is_a_read_once_attribute(self, owner, name):
        prop = vars(owner)[name]
        assert type(prop) is read_once and getattr(owner, name) is prop
        assert prop.__doc__ == prop.func.__doc__

    def test_each_instance_builds_once(self, monkeypatch):
        calls = []
        count_builds(monkeypatch, identities._Row, "even_scale", calls,
                     lambda row: (row.j, row.a, row.b))
        count_builds(monkeypatch, TruncatedSeries, "coefficients", calls,
                     lambda series: series.numerators)
        rows = [identities._Row(3, F(-1), F(1, 3)) for _ in range(2)]
        for row in rows:
            scale = row.even_scale
            assert row.even_scale is scale and vars(row)["even_scale"] is scale
        series = TruncatedSeries.over([1, 2], 3)
        assert series.coefficients is series.coefficients == (F(1, 3), F(2, 3))
        assert calls == [(3, F(-1), F(1, 3))] * 2 + [(1, 2)]

    @pytest.mark.parametrize("row, name, error", [
        # 2b + j = 0: the odd scale's factor 2a/(2b + j)
        ((1, F(-1, 2), F(-1, 2)), "odd_scale",
         "DenominatorPoleBeforeTermination: denominator parameter 0"),
        # no closed corollary form past |j| = 3
        ((4, F(-1), F(1, 3)), "corollary_heads",
         "UnsupportedJ: shift j=4 not supported (|j| must be <= 3)"),
    ])
    def test_a_build_that_raises_keeps_nothing(self, row, name, error,
                                               monkeypatch):
        calls = []
        count_builds(monkeypatch, identities._Row, name, calls, id)
        row = identities._Row(*row)
        for _ in range(2):
            with pytest.raises(VerificationError) as raised:
                getattr(row, name)
            assert f"{type(raised.value).__name__}: {raised.value}" == error
            assert name not in vars(row)
        assert calls == [id(row)] * 2


class TestPipeline:
    def test_monomial_moments(self):
        assert beta_moment(0, 1, 3) == 1
        assert beta_moment(1, 1, 3) == F(1, 3)
        assert beta_moment(2, 1, 3) == F(1, 6)

    def test_canonical_chain(self):
        poly = gen_transform_lhs_series(0, -1, 1, 2)
        assert poly.coefficients == (1, 0, F(1, 3))
        lhs, rhs = beta_integral_pipeline(CANONICAL)
        assert lhs == rhs == F(19, 18)

    def test_zero_a(self):
        lhs, rhs = beta_integral_pipeline(IdentityCase(2, 0, F(1, 3), 1, 3))
        assert lhs == rhs == 1

    def test_preconditions(self):
        with pytest.raises(InvalidCase):
            beta_integral_pipeline(IdentityCase(0, F(1, 2), 1, 1, 3))
        with pytest.raises(InvalidCase):
            beta_integral_pipeline(IdentityCase(0, -1, 1, -1, 3))
        with pytest.raises(InvalidCase):
            beta_integral_pipeline(IdentityCase(0, -1, 1, 5, 3))


class TestGridSweep:
    def test_empty_sets_give_empty_list(self):
        assert grid_sweep((), (), (), (), (), ("theorem",)) == []

    def test_singleton_all_checks(self):
        records = grid_sweep(
            (0,), (-1,), (1,), (1,), (3,),
            ("theorem", "corollary", "transform", "pipeline"),
        )
        assert len(records) == 4
        assert all(r.equal for r in records)
        assert sorted(r.check for r in records) == [
            "corollary", "pipeline", "theorem", "transform"
        ]

    def test_pole_point_is_skipped_not_fatal(self):
        records = grid_sweep(
            (-2,), (-1,), (1, F(1, 3)), (1,), (3,), ("theorem",)
        )
        by_b = {r.b: r for r in records}
        assert "PoleError" in by_b[F(1)].error
        assert by_b[F(1, 3)].equal

    def test_kummer_and_transform_sweep_reduced_grids(self):
        records = grid_sweep(
            (0, 1), (-1,), (F(1, 3),), (1, 2), (3, 4),
            ("kummer", "transform"),
        )
        kummer = [r for r in records if r.check == "kummer"]
        transform = [r for r in records if r.check == "transform"]
        assert len(kummer) == 1 and kummer[0].j is None and kummer[0].d is None
        assert len(transform) == 2 and {r.j for r in transform} == {0, 1}

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep((), (), (), (), (), ("bogus",))

    def test_memo_lives_for_one_sweep(self, monkeypatch):
        # Count Gamma reductions and the calls into one table row over two
        # identical sweeps: equal counts mean no memo outlives its sweep,
        # and the counts themselves show each (j, b) and (a, d, e) is worked
        # once, and the table entry read once.
        calls = {"gamma": 0, "row": 0}
        gamma_ratio = identities.gamma_ratio
        row = COEFF_TABLE[3]

        def counted_gamma(numerators, denominators):
            calls["gamma"] += 1
            return gamma_ratio(numerators, denominators)

        def counted_row(b, n):
            calls["row"] += 1
            return row[0](b, n)

        monkeypatch.setattr(identities, "gamma_ratio", counted_gamma)
        monkeypatch.setitem(COEFF_TABLE, 3, (counted_row, row[1]))
        seen = []
        for _ in range(2):
            calls.update(gamma=0, row=0)
            records = grid_sweep(
                (3,), (-1, -2), (F(1, 3), F(2, 5)), (F(1, 2), 1), (4,),
                ("theorem", "transform"),
            )
            assert all(r.equal for r in records)
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        # 4 distinct (a, d, e) left-side prefactors, plus even and odd
        # prefactors for 2 values of b
        assert seen[0]["gamma"] == 4 + 2 * 2
        assert seen[0]["row"] == 1  # one read on the symbols, whatever b

    @pytest.mark.parametrize("sweep, errors", [
        # the left side's Gamma prefactor at (a, d, e) = (-3, 1/2, -3) has
        # a pole, in every case of the row
        ((range(-3, 4), (-3,), (F(1, 3), F(2, 7)), (F(1, 2),), (-3,),
          ("corollary",)), ["PoleError: Gamma(-3) is a pole"] * 14),
        ((range(-3, 4), (-3,), (F(1, 3),), (F(1, 2),), (-3,),
          ("corollary",)), ["PoleError: Gamma(-3) is a pole"] * 7),
        # at (j, a, b) = (0, -2, -3/2) the pipeline's left-side polynomial
        # meets its lower parameter 2b + j = -3, in each of four columns
        (((0,), (-2,), (F(-3, 2),), (F(1, 2), 1), (3, F(7, 2)),
          ("pipeline",)),
         ["DenominatorPoleBeforeTermination: denominator parameter -3 "
          "vanishes at term 4"] * 4),
    ], ids=["lhs-pole-two-b", "lhs-pole-one-b", "polynomial-pole"])
    def test_the_memo_keeps_values_only(self, sweep, errors):
        # A helper or row invariant that raises is not kept, and raises
        # again where the next case reaches it: a filled memo holds no
        # error, pickles, and gives the records of a fresh memo and of
        # each case on its own.
        memo = {}
        records = grid_sweep(*sweep, memo=memo)
        assert [r.error for r in records] == errors
        rows = [v for v in memo.values() if isinstance(v, identities._Row)]
        assert rows
        kept = [*memo.values(),
                *(v for row in rows for v in (*vars(row).values(),
                                              *row.lefts.values()))]
        assert not any(isinstance(v, BaseException) for v in kept)
        restored = pickle.loads(pickle.dumps(memo))
        assert grid_sweep(*sweep, memo=restored) == records
        assert grid_sweep(*sweep) == records
        for rec in records:
            job = (rec.check, rec.j, rec.a, rec.b, rec.d, rec.e, 24, 2)
            assert identities._evaluate_case(job) == rec

    def test_row_errors_come_in_column_order(self):
        # At (j, a, b) = (1, 1/3, -1/2) both the odd scale's lower
        # parameter 2b + j and the even head's b + j/2 are 0.  The d = -1
        # column ends the even walk at term 0, so the odd scale raises;
        # the d = -2 column walks the even part to term 1 first, where its
        # pole raises.  The row reads its odd scale only where a column
        # reaches the odd part, so each column keeps its own error, with
        # a fresh memo and with one the same sweep filled.
        sweep = ((1,), (F(1, 3),), (F(-1, 2),), (F(1, 2), -1, F(5, 2), -2),
                 (4,), ("theorem",))
        invalid = "InvalidCase: neither a nor d is a nonpositive integer"
        pole = "DenominatorPoleBeforeTermination: denominator parameter 0"
        memo = {}
        for _ in range(2):
            assert [r.error for r in grid_sweep(*sweep, memo=memo)] == [
                invalid, pole, invalid, pole + " vanishes at term 1"]

    def test_argument_one_builds_each_rows_heads_once(self, monkeypatch):
        # theorem at argument 1 and transform read the one row of each
        # (j, a, b), which builds its weighted heads once, so the 44 rows
        # build 44 heads, not 88.
        calls = []
        count_builds(monkeypatch, identities._Row, "part_heads", calls,
                     lambda row: (row.j, row.a, row.b))
        records = grid_sweep(range(-5, 6), (-1, -2), (F(1, 3), F(2, 5)),
                             (F(1, 2), 1), (4,), ("theorem", "transform"),
                             theorem_argument=1)
        assert len(records) == 44 * 2 + 44
        assert len(calls) == len(set(calls)) == 44

    def test_row_invariants_are_shared_across_checks(self, monkeypatch):
        # transform and theorem read one row per (j, a, b) at argument 2,
        # so the weighted heads are built once per row, not per check.
        calls = []
        count_builds(monkeypatch, identities._Row, "part_heads", calls,
                     lambda row: (row.j, row.a, row.b))
        records = grid_sweep(
            (3,), (-1, -2), (F(1, 3), F(2, 5)), (F(1, 2), 1), (4,),
            ("theorem", "transform"),
        )
        assert all(r.equal for r in records)
        assert len(calls) == len(set(calls)) == 4

    def test_one_row_per_j_a_b_whatever_the_argument(self):
        # Only the left side's tail reads the theorem's argument, so a
        # theorem sweep at argument 1 shares its rows with corollary,
        # pipeline and transform: one row per (j, a, b), and each row
        # keeps both arguments' left sides of a column apart.
        # They differ at d = 1/2 and e = 4; at (j, a, b, d, e) =
        # (-3, -1, 1/3, 1, 4) both are 4/7.
        js, a_s, b_s = (0, 1, -3), (-1, -2), (F(1, 3), F(2, 5))
        d_s, e_s = (F(1, 2), 1), (4, F(13, 3))
        memo = {}
        records = grid_sweep(js, a_s, b_s, d_s, e_s,
                             ("theorem", "corollary", "pipeline", "transform"),
                             series_order=6, theorem_argument=1, memo=memo)
        assert len(records) == 12 * (3 * 4 + 1)
        rows = [v for v in memo.values() if isinstance(v, identities._Row)]
        assert sorted((r.j, r.a, r.b) for r in rows) == sorted(
            (j, a, b) for j in js for a in a_s for b in b_s)
        for row in rows:
            for d, e in ((d, e) for d in d_s for e in e_s):
                pairs = F(d).as_integer_ratio(), F(e).as_integer_ratio()
                one, two = (F(*row.lefts[pairs, argument])
                            for argument in ((1, 1), (2, 1)))
                case = IdentityCase(row.j, row.a, row.b, d, e)
                assert (one, two) == (theorem_lhs(case, 1), theorem_lhs(case))
                assert one != two or (d, e) != (F(1, 2), 4)

    def test_one_column_table_per_sweep(self, monkeypatch):
        # theorem and corollary read the same moment tails, so a sweep of
        # both builds one column table and one pair of tails per column.
        tables, tails = [], []
        columns = identities._columns

        def counted(*args):
            tables.append(args)
            return columns(*args)

        monkeypatch.setattr(identities, "_columns", counted)
        count_builds(monkeypatch, identities._Column, "tails", tails,
                     lambda column: column.pairs)
        records = grid_sweep(
            range(-3, 4), (-1, -2), (F(1, 3), F(2, 5)),
            (F(1, 2), 1, -1, -2), (4, F(13, 3)), ("theorem", "corollary"),
        )
        assert len(records) == 2 * 7 * 2 * 2 * 4 * 2
        assert len(tables) == 1
        assert len(tails) == len(set(tails)) == 8

    def test_pipeline_builds_no_moment_tails(self, monkeypatch):
        # Only the two right sides read the moment tails, at their first
        # read: a pipeline-only sweep and a pipeline case build none.
        calls = []
        count_builds(monkeypatch, identities._Column, "tails", calls,
                     lambda column: column.pairs)
        records = grid_sweep((-1, 2), (-1, -2), (F(1, 3),), (F(1, 2), 1),
                             (3, F(7, 2)), ("pipeline",))
        assert len(records) == 16 and all(r.equal for r in records)
        lhs, rhs = beta_integral_pipeline(IdentityCase(2, -2, F(1, 3), 1, 3))
        assert lhs == rhs
        assert calls == []

    @pytest.mark.parametrize("check, sweep, walk", [
        # a = 0 kills the corollaries' second series
        ("corollary", ((1, -2, 3), (0,), (F(1, 3),), (F(1, 2), -2), (4,)),
         "_terminating_pair"),
        # the odd weighted part is dead at j = 0, at a = 0 and at d = 0
        ("theorem", ((0,), (-1,), (F(1, 3),), (F(1, 2), -2), (4,)),
         "_terminating_pair"),
        ("theorem", ((1, -2), (0,), (F(1, 3),), (F(1, 2), -2), (4,)),
         "_terminating_pair"),
        ("theorem", ((1, -2, 3), (-1,), (F(1, 3), F(2, 5)), (0,), (4,)),
         "_terminating_pair"),
    ])
    def test_a_dead_second_part_is_never_walked(self, check, sweep, walk,
                                                 monkeypatch):
        # each record walks its left side and its first part only, both
        # through the one sum, `walk`
        calls = []
        fn = getattr(identities, walk)

        def counted(*specs):
            calls.append(specs)
            return fn(*specs)

        monkeypatch.setattr(identities, walk, counted)
        records = grid_sweep(*sweep, (check,))
        assert all(r.status == "passed" for r in records), [
            r.error for r in records if r.status != "passed"]
        assert len(calls) == 2 * len(records)

    def test_filled_memo_pickles(self, monkeypatch):
        # A memo is plain data: one that all six suites filled, rows and
        # their left sides included, comes back whole from a pickle: the
        # suites read every Gamma prefactor from it, and their records
        # are those of a fresh run.
        memo = {}
        for suite in suites.ALL_SUITES:
            suite.run(memo)
        assert any(isinstance(v, identities._Row) for v in memo.values())
        restored = pickle.loads(pickle.dumps(memo))
        fresh = {suite.name: suite.run() for suite in suites.ALL_SUITES}

        def broken(*args):
            raise AssertionError("Gamma prefactor reduced again")

        monkeypatch.setattr(identities, "gamma_ratio", broken)
        for suite in suites.ALL_SUITES:
            assert suite.run(restored) == fresh[suite.name], suite.name

    def test_memo_keeps_each_helper_at_its_scope(self, monkeypatch):
        # All six suites on one memo: one row per (j, a, b), the weight
        # polynomials and the prefactors per (j, b), each table entry's
        # terms per (j, part), one table of the left side's tails per
        # (a, argument), which builds one tail per (d, e), the moments
        # per (degree, d, e) and one column table per set of columns.
        # Whatever else a row computes, it keeps itself.
        built = []
        lhs_tail = identities._lhs_tail

        @functools.wraps(lhs_tail)
        def counted(*args):
            built.append(args)
            return lhs_tail(*args)

        monkeypatch.setattr(identities, "_lhs_tail", counted)
        memo = {}
        for suite in suites.ALL_SUITES:
            suite.run(memo)
        heads = Counter(key[0].__name__ for key in memo)
        assert heads == {"_Row": 165, "_weight_poly": 66, "_weight_terms": 22,
                         "_lhs_tail": 6, "even_prefactor": 33,
                         "odd_prefactor": 30, "_moments": 12, "_columns": 3}
        assert len(built) == len(set(built)) == 52
        assert sum(len(v) for k, v in memo.items() if k[0] is counted) == 52

    def test_stored_none_is_a_memo_hit(self):
        # A helper may return None, as a termination index does for a
        # group with no terminating parameter: the memo keeps it like any
        # other value, so a sweep over 2 rows of 3 cases each works it once
        # per key, not once per case.
        calls = []

        def no_stop(j, b):
            calls.append((j, b))
            return None

        memo = {}
        for j in (1, 2):
            for _ in range(3):
                for b in (F(1, 3), F(2, 5)):
                    assert identities._memoized(memo, no_stop, j, b) is None
        assert calls == [(j, b) for j in (1, 2) for b in (F(1, 3), F(2, 5))]

    @pytest.mark.parametrize("suite, calls", [
        (suites.KUMMER_SUITE, 60), (suites.TRANSFORM_SUITE, 84),
        (suites.THEOREM_A_SUITE, 302), (suites.THEOREM_D_SUITE, 330),
        (suites.COROLLARY_SUITE, 214), (suites.PIPELINE_SUITE, 78),
    ])
    def test_rows_are_reused_within_a_suite(self, suite, calls, monkeypatch):
        # Each group's ratio rows are built once per count it is summed
        # to and reused by every case of its row or column, and a sum
        # that stops at term 0 builds none: the number of rows built per
        # canonical suite is pinned.  A kummer case builds three sets:
        # its left side's 2F1 and binomial factor, and its right side.
        built = []
        ratio_rows = hyper.ratio_rows

        def counted(*args):
            built.append(args)
            return ratio_rows(*args)

        monkeypatch.setattr(hyper, "ratio_rows", counted)
        suite.run()
        assert len(built) == calls

    def test_suites_sharing_one_memo_match_their_own_runs(self):
        # Every memo entry is a pure function of its key, so a suite reads
        # the same records from a memo that other suites filled, in either
        # order, as from its own.
        alone = {suite.name: suite.run() for suite in suites.ALL_SUITES}
        for order in (suites.ALL_SUITES, suites.ALL_SUITES[::-1]):
            memo = {}
            for suite in order:
                assert suite.run(memo) == alone[suite.name], suite.name

    def test_series_records_carry_coefficient_tuples(self):
        rec = grid_sweep((), (-1,), (1,), (), (), ("kummer",), series_order=4)[0]
        assert rec.lhs == (1, 0, F(1, 3), 0, 0)
        assert rec.equal
