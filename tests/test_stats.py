from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.special import betainc

from oracles import (
    lapack_ols,
    normal_equations_ols,
    t_tail_betainc,
    t_tail_closed_form,
    t_tail_mpmath,
    t_tail_quadrature,
)
from postmine.corpus import InstitutionRecord, Post, Region
from postmine.errors import DataError
from postmine.stats import (
    DESIGN_COLUMNS,
    DesignMatrix,
    build_design,
    normalize_rate,
    ols_fit,
    t_pvalue,
    write_regression_report,
)


class TestNormalizeRate:
    def test_zero_count(self):
        assert normalize_rate(0, 5000) == 0.0

    def test_simple_division(self):
        assert normalize_rate(10, 5000) == pytest.approx(0.002)

    def test_aggregate_sanity_total(self):
        # 2,939 cases over a 200-school combined enrollment
        total_enrollment = 200 * 10_000
        assert normalize_rate(2939, total_enrollment) == pytest.approx(2939 / 2e6)

    def test_bad_enrollment_rejected(self):
        with pytest.raises(ValueError):
            normalize_rate(1, 0)


def make_institution(inst_id="u1", enrollment=5000, mf=0.9, private=True,
                     region=Region.MIDWEST, cases=10):
    return InstitutionRecord(inst_id, enrollment, mf, private, region, cases)


class TestBuildDesign:
    def test_midwest_is_reference_category(self):
        design = build_design([make_institution(region=Region.MIDWEST)], ())
        row = design.rows[0]
        assert list(row[3:6]) == [0.0, 0.0, 0.0]
        assert row[2] == 1.0  # private

    def test_northeast_public(self):
        design = build_design(
            [make_institution(region=Region.NORTHEAST, private=False)], ())
        row = design.rows[0]
        assert list(row[3:6]) == [1.0, 0.0, 0.0]
        assert row[2] == 0.0

    def test_column_order(self):
        assert DESIGN_COLUMNS == (
            "M/F Ratio", "Enrollment", "Private", "Northeast", "West",
            "South", "Normalized cases count", "constant")
        design = build_design([make_institution()], ())
        assert design.feature_names == DESIGN_COLUMNS
        assert design.rows[0][-1] == 1.0
        assert design.rows[0][6] == pytest.approx(10 / 5000)

    def test_response_defaults_to_zero(self):
        institutions = [make_institution("u1", enrollment=100),
                        make_institution("u2", enrollment=200)]
        posts = [Post(f"p{i}", user, "u1", 0, "text")
                 for i, user in enumerate(["a", "b", "a"])]
        assert build_design(institutions, posts).response == (0.02, 0.0)


class TestOlsFit:
    def test_perfect_line(self):
        design = DesignMatrix(
            ("x", "constant"),
            np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]),
            np.array([3.0, 5.0, 7.0]))
        result = ols_fit(design)
        assert result.coefficients == pytest.approx([2.0, 1.0], abs=1e-12)
        assert result.r_squared == pytest.approx(1.0)
        residuals = design.response - design.rows @ result.coefficients
        assert float(residuals @ residuals) == pytest.approx(0.0, abs=1e-20)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            x = rng.normal(size=(50, 4))
            x[:, -1] = 1.0
            y = x @ rng.normal(size=4) + rng.normal(scale=0.3, size=50)
            design = DesignMatrix(tuple("abcd"), x, y)
            result = ols_fit(design)
            beta, se, t = normal_equations_ols(x, y)
            assert np.allclose(result.coefficients, beta, rtol=1e-8)
            assert np.allclose(result.std_errors, se, rtol=1e-8)
            assert np.allclose(result.t_stats, t, rtol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 5))
        x[:, -1] = 1.0
        y = rng.normal(size=60)
        design = DesignMatrix(tuple("abcde"), x, y)
        result = ols_fit(design)
        residuals = y - x @ result.coefficients
        scale = 1.0 + np.max(np.abs(x.T @ y))
        assert np.max(np.abs(x.T @ residuals)) <= 1e-8 * scale

    def test_duplicate_column_rejected_with_name(self):
        x = np.ones((10, 3))
        rng = np.random.default_rng(0)
        x[:, 0] = rng.normal(size=10)
        x[:, 1] = x[:, 0]
        design = DesignMatrix(("first", "copy_of_first", "constant"),
                              x, rng.normal(size=10))
        with pytest.raises(DataError, match="rank deficient at column 'copy_of_first'"):
            ols_fit(design)

    def test_all_zero_design_rejected_with_name(self):
        design = DesignMatrix(("a", "b"), np.zeros((5, 2)), np.ones(5))
        with pytest.raises(DataError, match="rank deficient at column 'a'"):
            ols_fit(design)

    def test_underdetermined_rejected(self):
        x = np.eye(3)
        design = DesignMatrix(("a", "b", "c"), x, np.ones(3))
        with pytest.raises(DataError, match="n=3, p=3"):
            ols_fit(design)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3))
        x[:, -1] = 1.0
        y = rng.normal(size=40)
        base = ols_fit(DesignMatrix(("a", "b", "constant"), x, y))
        scaled_x = x.copy()
        scaled_x[:, 0] *= 10.0
        scaled = ols_fit(DesignMatrix(("a", "b", "constant"), scaled_x, y))
        assert scaled.coefficients[0] == pytest.approx(base.coefficients[0] / 10,
                                                       rel=1e-8)
        assert scaled.t_stats[0] == pytest.approx(base.t_stats[0], rel=1e-8)
        assert scaled.p_values[0] == pytest.approx(base.p_values[0], rel=1e-8)
        assert np.allclose(scaled_x @ scaled.coefficients, x @ base.coefficients,
                           rtol=1e-8)

    @pytest.mark.parametrize("x_scale, y_scale", [
        (1e200, 1.0), (1e-200, 1.0), (1.0, 1e250), (1.0, 1e-250), (1e150, 1e-140)])
    def test_extreme_magnitudes_scale_exactly(self, x_scale, y_scale):
        # squares of these entries overflow or underflow; a power-of-two
        # scale keeps every bit of the fit, and a power of ten nearly all
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 4))
        x[:, -1] = 1.0
        y = rng.normal(size=30)
        names = ("a", "b", "c", "constant")
        base = ols_fit(DesignMatrix(names, x, y))
        shift = ols_fit(DesignMatrix(names, np.ldexp(x, 600), np.ldexp(y, -500)))
        assert shift.coefficients == tuple(np.ldexp(base.coefficients, -1100))
        assert shift.std_errors == tuple(np.ldexp(base.std_errors, -1100))
        assert (shift.t_stats, shift.p_values, shift.r_squared) == \
            (base.t_stats, base.p_values, base.r_squared)
        scaled = ols_fit(DesignMatrix(names, x * x_scale, y * y_scale))
        ratio = y_scale / x_scale
        assert np.allclose(scaled.coefficients, np.multiply(base.coefficients, ratio),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(scaled.std_errors, np.multiply(base.std_errors, ratio),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(scaled.t_stats, base.t_stats, rtol=1e-12, atol=0.0)

    def test_planted_coefficients_recovered(self):
        rng = np.random.default_rng(21)
        regions = [Region.NORTHEAST, Region.SOUTH, Region.WEST, Region.MIDWEST]
        institutions = [
            make_institution(
                inst_id=f"u{i}",
                enrollment=int(rng.integers(2000, 40000)),
                mf=float(rng.uniform(0.5, 1.5)),
                private=bool(rng.integers(0, 2)),
                region=regions[i % 4],
                cases=int(rng.integers(0, 50)),
            )
            for i in range(40)
        ]
        planted = np.array([0.002, 1e-7, 0.003, 0.08, 0.09, 0.075, 0.9, -0.05])
        probe = build_design(institutions, ())
        rows = np.asarray(probe.rows)
        y = rows @ planted + rng.normal(scale=1e-4, size=40)
        design = DesignMatrix(probe.feature_names, probe.rows, y)
        result = ols_fit(design)
        beta, _, _ = normal_equations_ols(rows, y)
        assert np.allclose(result.coefficients, beta, rtol=1e-8)
        assert np.allclose(result.coefficients, planted, atol=2e-3)

    def test_matches_lapack_on_random_designs(self):
        # Every other design has benchmark-like column scales: enrollment
        # ~1e4 and a case rate ~1e-3 per student.  Each column moves y by
        # O(1), so every coefficient is well determined.
        rng = np.random.default_rng(8)
        for trial in range(40):
            n, p = int(rng.integers(12, 300)), int(rng.integers(3, 9))
            x = rng.normal(size=(n, p))
            x[:, -1] = 1.0
            if trial % 2:
                x[:, 0] = rng.uniform(2000, 40000, n)
                x[:, 1] = rng.integers(0, 60, n) / x[:, 0]
            scale = np.where(x.std(axis=0) > 0, x.std(axis=0), 1.0)
            y = x @ (rng.normal(size=p) / scale) + rng.normal(scale=0.1, size=n)
            result = ols_fit(DesignMatrix(tuple(f"c{i}" for i in range(p)), x, y))
            beta, se, t = lapack_ols(x, y, None)
            for mine, ref in ((result.coefficients, beta), (result.std_errors, se),
                              (result.t_stats, t)):
                assert np.allclose(mine, ref, rtol=1e-8, atol=0.0), trial

    @staticmethod
    def _planted_design(kind):
        rng = np.random.default_rng(13)
        if kind == "no_midwest":
            regions = [Region.NORTHEAST, Region.WEST, Region.SOUTH]
            institutions = [
                make_institution(f"u{i}", enrollment=int(rng.integers(2000, 40000)),
                                 mf=float(rng.uniform(0.5, 1.5)),
                                 private=bool(rng.integers(0, 2)), region=regions[i % 3],
                                 cases=int(rng.integers(0, 50)))
                for i in range(40)]
            design = build_design(institutions, ())
            return design.feature_names, np.asarray(design.rows), rng.normal(size=40)
        names = ("a", "b", "c", "d", "constant")
        x = rng.normal(size=(30, 5))
        x[:, -1] = 1.0
        if kind == "duplicate":
            x[:, 2] = x[:, 1]
        elif kind == "scaled_copy":
            x[:, 3] = -2.5e4 * x[:, 0]
        elif kind == "near_dependence":
            x[:, 2] = x[:, 1] + 1e-11 * rng.normal(size=30)
        elif kind == "just_independent":
            x[:, 2] = x[:, 1] + 1e-8 * rng.normal(size=30)
        return names, x, rng.normal(size=30)

    @pytest.mark.parametrize("kind, named", [
        ("duplicate", "c"),
        ("scaled_copy", "d"),
        ("no_midwest", "constant"),
        # below the 1e-10 ratio, so the prefix ending at the near copy
        # gains no rank at that ratio
        ("near_dependence", "c"),
        ("just_independent", None),
    ])
    def test_rank_decision_matches_lapack(self, kind, named):
        names, x, y = self._planted_design(kind)

        def outcome(fit):
            try:
                fit()
            except DataError as exc:
                return str(exc)
            return None

        mine = outcome(lambda: ols_fit(DesignMatrix(names, x, y)))
        assert mine == outcome(lambda: lapack_ols(x, y, names))
        if named is None:
            assert mine is None
        else:
            assert mine == f"design matrix is rank deficient at column {named!r}"

    def test_perfect_fit_infinite_t_and_zero_coefficient_nan(self, tmp_path):
        # y = 2 * constant over four rows: the constant column has norm 2,
        # so every Householder step on y is exact, and the residuals and
        # hence the standard errors are exactly 0.
        x = [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 3.0]]
        result = ols_fit(DesignMatrix(("constant", "b"), x, [2.0] * 4))
        assert result.coefficients == (2.0, 0.0)
        assert result.std_errors == (0.0, 0.0)
        assert result.t_stats[0] == np.inf
        assert np.isnan(result.t_stats[1])
        assert result.p_values[0] == 0.0
        assert np.isnan(result.p_values[1])
        path = tmp_path / "regression.csv"
        write_regression_report(result, path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith(",inf,0")
        assert lines[2].endswith(",nan,nan")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        x = np.column_stack([np.arange(6.0), np.ones(6)])
        y = np.arange(6.0)
        bad_x, bad_y = x.copy(), y.copy()
        bad_x[3, 0] = bad_y[2] = bad
        for rows, response in ((bad_x, y), (x, bad_y)):
            with pytest.raises(DataError, match="non-finite"):
                ols_fit(DesignMatrix(("a", "constant"), rows, response))

    def test_ragged_design_rejected(self):
        x = [[1.0, 1.0]] * 5 + [[1.0]]
        with pytest.raises(DataError, match="2 values per row"):
            ols_fit(DesignMatrix(("a", "constant"), x, [1.0] * 6))

    def test_singular_values_not_converged_raises(self, monkeypatch):
        # one Jacobi sweep leaves a random design's columns not yet
        # orthogonal, so its column norms are not the singular values
        monkeypatch.setattr("postmine.stats._MAX_SWEEPS", 1)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 5))
        with pytest.raises(ArithmeticError, match="did not converge"):
            ols_fit(DesignMatrix(tuple("abcde"), x, rng.normal(size=20)))

    def test_budget_at_us_institution_scale(self):
        # about the number of US degree-granting institutions
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4000, 8))
        x[:, -1] = 1.0
        design = DesignMatrix(tuple("abcdefgh"), x.tolist(), rng.normal(size=4000).tolist())
        start = time.perf_counter()
        ols_fit(design)
        assert time.perf_counter() - start < 0.5


class TestTPValue:
    def test_t_zero_gives_one(self):
        assert t_pvalue(0.0, 7) == 1.0

    def test_reference_value_against_quadrature(self):
        value = t_pvalue(2.0, 10)
        assert value == pytest.approx(0.0734, abs=5e-4)
        assert value == pytest.approx(t_tail_quadrature(2.0, 10), abs=1e-10)

    def test_symmetric_and_monotone(self):
        for dof in (1, 5, 30):
            values = [t_pvalue(t, dof) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 50.0)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert values == sorted(values, reverse=True)
            assert t_pvalue(-2.5, dof) == t_pvalue(2.5, dof)

    def test_large_t_tends_to_zero(self):
        assert t_pvalue(1e8, 10) < 1e-12

    def test_matches_quadrature_on_grid(self):
        for dof in (1, 2, 5, 10, 60):
            for t in (0.1, 0.7, 1.5, 2.3, 4.0):
                assert t_pvalue(t, dof) == pytest.approx(
                    t_tail_quadrature(t, dof), abs=1e-9)

    def test_bad_dof(self):
        with pytest.raises(ValueError):
            t_pvalue(1.0, 0)

    @pytest.mark.parametrize("dof", [2.0, 2.5, True, "3", None], ids=repr)
    def test_non_integer_dof_rejected(self, dof):
        with pytest.raises(ValueError, match="integer"):
            t_pvalue(1.0, dof)

    def test_matches_betainc_to_relative_precision(self):
        # Small tails are where a closed form summed as "1 - series"
        # would lose every digit; the reference stays within 1e-7 of it
        # down to the smallest normal float.
        for dof in range(1, 121):
            for t in np.logspace(-6, 3, 46):
                ref = t_tail_betainc(float(t), dof)
                if ref < np.finfo(float).tiny:
                    continue
                value = t_pvalue(float(t), dof)
                assert abs(value - ref) <= 1e-7 * ref, (dof, t, value, ref)
                assert f"{value:.4g}" == f"{ref:.4g}", (dof, t, value, ref)


    @pytest.mark.parametrize("dof", [1000, 10_000, 100_000])
    def test_matches_betainc_at_large_dof(self, dof):
        # t_tail_betainc rounds x = dof / (dof + t^2); where t^2 is tiny
        # next to dof that rounding is the error, so there the reference
        # is 1 - I_{1-x}(1/2, dof/2) with 1 - x = t^2 / (dof + t^2).
        for t in np.logspace(-6, 3, 46):
            t = float(t)
            y = t * t / (dof + t * t)
            ref = (1.0 - float(betainc(0.5, dof / 2.0, y)) if y < 1e-3
                   else t_tail_betainc(t, dof))
            if ref < np.finfo(float).tiny:
                continue
            value = t_pvalue(t, dof)
            assert abs(value - ref) <= 1e-7 * ref, (dof, t, value, ref)
            assert f"{value:.4g}" == f"{ref:.4g}", (dof, t, value, ref)

    def test_matches_closed_form_series(self):
        for dof in range(1, 121):
            for t in np.logspace(-6, 3, 46):
                ref = t_tail_closed_form(float(t), dof)
                if ref < np.finfo(float).tiny:
                    continue
                value = t_pvalue(float(t), dof)
                assert abs(value - ref) <= 1e-11 * ref, (dof, t, value, ref)
        # t^2 overflows from |t| ~ 1.3e154; at dof 1 the tail is still
        # ~2 / (pi |t|), and from 1e308 on a subnormal
        for t in (1e155, -1e155, 1e200, 1e300, 1.7e308):
            ref = t_tail_closed_form(t, 1)
            value = t_pvalue(t, 1)
            assert abs(value - ref) <= 1e-11 * ref, (t, value, ref)

    @pytest.mark.parametrize("dof", [10**6, 10**9, 10**12, 10**15])
    def test_matches_mpmath_at_very_large_dof(self, dof):
        # a difference of log-gammas in the prefactor would lose 6e-9 at
        # dof 1e6 and give 0.636 for 0.0836 at 1e15
        for t in (1e-3, 0.7, 1.73):
            ref = t_tail_mpmath(t, dof)
            assert abs(t_pvalue(t, dof) - ref) <= 1e-10 * ref, (t, ref)

    def test_budget_at_large_dof(self):
        # the closed-form series needs ~80 * dof terms near p = 0.5; the
        # continued fraction's hardest t sit around its switch, t ~ sqrt(3)
        start = time.perf_counter()
        for t in (0.7, 1.0, 1.5, 1.7, 1.75, 2.0, 2.5, 3.0):
            assert 0.0 < t_pvalue(t, 1_000_000) < 1.0
        assert time.perf_counter() - start < 0.05


def test_report_schema(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 3))
    x[:, -1] = 1.0
    y = rng.normal(size=30)
    result = ols_fit(DesignMatrix(("alpha", "beta", "constant"), x, y))
    path = tmp_path / "regression.csv"
    write_regression_report(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,coefficient,std_err,t_stat,p_value"
    assert [line.split(",")[0] for line in lines[1:4]] == ["alpha", "beta", "constant"]
    assert lines[-1].startswith("# n=30 p=3 r_squared=")
