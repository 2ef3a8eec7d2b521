"""Design-matrix encoding and ordinary least squares with classical
inference (standard errors, t-statistics, two-sided Student-t
p-values), in pure Python on plain floats.

The solve is a Householder QR, singular values by one-sided Jacobi on R:
beta and the standard errors come from R by back-substitution, and a
normal-equations solve exists only as an independent oracle in the test
suite.  Rank deficiency is detected from the singular values (ratio
below 1e-10 of the largest) and reported with the name of a dependent
column rather than silently regularized.  Pure Python suits the
design, tens to thousands of institutions by eight features.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from operator import mul
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import InstitutionRecord, Post, Region
from .errors import DataError, atomic_open

RANK_TOLERANCE = 1e-10
_EPS = 2.0 ** -52          # float64 machine epsilon
_TINY = 1e-300             # Lentz's stand-in for a zero denominator
# Guards against a loop that never converges: Jacobi took at most 8
# sweeps on 500 designs of 40 x 8, and the fraction at most 61 terms for
# dof 1 to 1e7.
_MAX_SWEEPS = 60
_MAX_FRACTION_TERMS = 10_000
# log Gamma(a + 1/2) - log Gamma(a) ~ ln(a)/2 + sum_j c_j / a^(2j-1) for
# large a, from the Bernoulli-polynomial expansion of log Gamma(a + h)
# (DLMF 5.11.8).  From a = 20 on the first omitted term, 691/(180224
# a^11), is below 1e-16, while the difference of two log-gammas near
# a ln a loses digits as a grows.
_HALF_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)
_HALF_RATIO_MIN_A = 20.0

DESIGN_COLUMNS = (
    "M/F Ratio",
    "Enrollment",
    "Private",
    "Northeast",
    "West",
    "South",
    "Normalized cases count",
    "constant",
)

REPORT_HEADER = ("feature", "coefficient", "std_err", "t_stat", "p_value")


class DesignMatrix(NamedTuple):
    feature_names: tuple[str, ...]
    rows: Sequence[Sequence[float]]   # n x p, final column is the intercept constant 1
    response: Sequence[float]         # n


class RegressionResult(NamedTuple):
    feature_names: tuple[str, ...]
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    residual_dof: int
    r_squared: float


def normalize_rate(count: int, enrollment: int) -> float:
    """Events per enrolled student."""
    if enrollment < 1:
        raise ValueError(f"enrollment must be >= 1, got {enrollment}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return count / enrollment


def build_design(
    institutions: Sequence[InstitutionRecord],
    posts: Iterable[Post],
) -> DesignMatrix:
    """Encode institutions as regression rows, response = posting rate:
    distinct posting users per enrolled student, zero for an institution
    with no posts.

    Column order: M/F ratio, enrollment, private dummy, region dummies
    (Northeast, West, South; Midwest is the omitted reference), the
    normalized official case rate, and the intercept constant.
    """
    users: dict[str, set[str]] = {}
    for post in posts:
        users.setdefault(post.institution_id, set()).add(post.user_id)
    rows = []
    response = []
    for inst in institutions:
        rows.append((
            inst.mf_ratio,
            float(inst.enrollment),
            1.0 if inst.is_private else 0.0,
            1.0 if inst.region is Region.NORTHEAST else 0.0,
            1.0 if inst.region is Region.WEST else 0.0,
            1.0 if inst.region is Region.SOUTH else 0.0,
            normalize_rate(inst.reported_cases, inst.enrollment),
            1.0,
        ))
        response.append(normalize_rate(len(users.get(inst.institution_id, ())),
                                       inst.enrollment))
    return DesignMatrix(
        feature_names=DESIGN_COLUMNS, rows=tuple(rows), response=tuple(response))


def _binary_exponent(values: Iterable[float]) -> int:
    """e with the largest |value| in [2^(e-1), 2^e), or 0 when all are 0."""
    return math.frexp(max(map(abs, values), default=0.0))[1]


def _householder_qr(columns: list[list[float]], y: list[float]):
    """R (as p rows) and Q'y for the n x p matrix with the given columns,
    which are overwritten (Golub & Van Loan, Matrix Computations, 5.2).

    Reflection k maps the entries k.. of column k onto -sign * norm * e_k;
    a column whose entries k.. are all zero needs none (R_kk = 0).
    """
    p = len(columns)
    qty = list(y)
    for k in range(p):
        v = columns[k][k:]
        norm = math.hypot(*v)
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, v[0])
        half_vv = norm * (norm + abs(v[0]))   # v'v / 2 for v = x - alpha e_1
        v[0] -= alpha
        for target in columns[k + 1:] + [qty]:
            tail = target[k:]
            scale = sum(map(mul, v, tail)) / half_vv
            target[k:] = [a - scale * b for a, b in zip(tail, v)]
        columns[k][k] = alpha
    # later reflections leave row k alone, so it is final
    r = [[0.0] * k + [col[k] for col in columns[k:]] for k in range(p)]
    return r, qty


def _back_substitute(r: list[list[float]], b: Sequence[float]) -> list[float]:
    """x with R x = b, for upper triangular R with a nonzero diagonal."""
    p = len(b)
    x = [0.0] * p
    for i in reversed(range(p)):
        row = r[i]
        x[i] = (b[i] - sum(row[j] * x[j] for j in range(i + 1, p))) / row[i]
    return x


def _singular_values(a: Sequence[Sequence[float]]) -> list[float]:
    """Singular values, largest first, of the square matrix with rows
    ``a``, by one-sided Jacobi: rotate pairs of columns until every pair
    is orthogonal to working precision; the column norms are then the
    singular values (Demmel & Veselic 1992).

    A column whose norm is at most m * eps of the matrix's Frobenius
    norm is left as it is: rotating it only trades rounding noise, so it
    would never pass the orthogonality test, and setting it to zero moves
    no singular value by more than that bound."""
    cols = [list(c) for c in zip(*a)]
    m = len(cols)
    tol = m * _EPS
    negligible = (tol * math.hypot(*(math.hypot(*c) for c in cols))) ** 2
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for i in range(m - 1):
            for j in range(i + 1, m):
                ci, cj = cols[i], cols[j]
                alpha = sum(map(mul, ci, ci))
                beta = sum(map(mul, cj, cj))
                if min(alpha, beta) <= negligible:
                    continue
                gamma = sum(map(mul, ci, cj))
                if abs(gamma) <= tol * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                # tan(theta) that zeroes the pair's inner product, the
                # smaller root of t^2 + 2 zeta t - 1 = 0
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                cols[i] = [c * x - s * y for x, y in zip(ci, cj)]
                cols[j] = [s * x + c * y for x, y in zip(ci, cj)]
        if not rotated:
            return sorted((math.hypot(*c) for c in cols), reverse=True)
    raise ArithmeticError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} sweeps")


def _first_dependent_column(r: list[list[float]], names: Sequence[str]) -> str:
    """First column whose prefix of X does not gain rank.  X[:, :j+1] =
    Q[:, :j+1] R[:j+1, :j+1], so each prefix's singular values are those
    of R's leading block; the rank counts those above RANK_TOLERANCE
    of the largest, the ratio that decides rank deficiency."""
    rank = 0
    for j in range(len(r)):
        singular = _singular_values([row[: j + 1] for row in r[: j + 1]])
        new_rank = sum(1 for s in singular if s > RANK_TOLERANCE * singular[0])
        if new_rank == rank:
            return names[j]
        rank = new_rank
    return names[-1]


def ols_fit(design: DesignMatrix) -> RegressionResult:
    """Least-squares fit with classical standard errors.

    std_err_j = sqrt(sigma2 * (X'X)^-1_jj), sigma2 = RSS / (n - p);
    t_j = beta_j / se_j; p_j is the two-sided Student-t tail at n - p
    degrees of freedom.  X = QR by Householder reflections, beta solves
    R beta = Q'y and (X'X)^-1 = R^-1 R^-T.  ``design.rows`` may be any
    sequence of n rows of p numbers, a numpy array included.
    """
    rows = [tuple(map(float, row)) for row in design.rows]
    y = [float(v) for v in design.response]
    n, p = len(rows), len(design.feature_names)
    if n <= p:
        raise DataError(f"need more rows than features: n={n}, p={p}")
    if len(y) != n or any(len(row) != p for row in rows):
        raise DataError(f"design must have {p} values per row and one response "
                        f"per row: {n} rows, {len(y)} responses")
    if not all(map(math.isfinite, itertools.chain(y, *rows))):
        raise DataError("design matrix or response has a non-finite value")
    # The fit runs on X 2^-ex and y 2^-ey, each power of two taken from
    # the largest magnitude, so no sum of squares overflows or underflows;
    # beta and the standard errors are scaled back by 2^(ey - ex).
    # Scaling by a power of two is exact, and a uniform one keeps the
    # ratios of singular values, so the rank test is unchanged.
    ex = _binary_exponent(itertools.chain(*rows))
    ey = _binary_exponent(y)
    rows = [[math.ldexp(v, -ex) for v in row] for row in rows]
    y = [math.ldexp(v, -ey) for v in y]
    r, qty = _householder_qr([list(col) for col in zip(*rows)], y)
    singular = _singular_values(r)
    if singular[-1] <= RANK_TOLERANCE * singular[0]:
        name = _first_dependent_column(r, design.feature_names)
        raise DataError(f"design matrix is rank deficient at column {name!r}")

    beta = _back_substitute(r, qty[:p])
    residuals = [v - sum(map(mul, row, beta)) for v, row in zip(y, rows)]
    rss = sum(e * e for e in residuals)
    dof = n - p
    sigma2 = rss / dof
    # column j of R^-1 solves R c = e_j; (X'X)^-1_ii sums row i of R^-1 squared
    r_inv = [_back_substitute(r, [float(i == j) for i in range(p)]) for j in range(p)]
    std_errors = [math.sqrt(sigma2 * sum(col[i] * col[i] for col in r_inv))
                  for i in range(p)]
    t_stats = [b / s if s > 0 else math.copysign(math.inf, b) if b != 0 else math.nan
               for b, s in zip(beta, std_errors)]
    mean = sum(y) / n
    tss = sum((v - mean) * (v - mean) for v in y)
    r_squared = 1.0 - rss / tss if tss > 0 else float("nan")
    return RegressionResult(
        feature_names=design.feature_names,
        coefficients=tuple(math.ldexp(b, ey - ex) for b in beta),
        std_errors=tuple(math.ldexp(s, ey - ex) for s in std_errors),
        t_stats=tuple(t_stats),
        p_values=tuple(t_pvalue(t, dof) for t in t_stats),
        residual_dof=dof,
        r_squared=r_squared,
    )


def t_pvalue(t: float, dof: int) -> float:
    """Two-sided Student-t tail probability P(|T| >= |t|) at an integer
    dof; symmetric in t, monotone decreasing in |t|, exactly 1 at t = 0.

    The tail is the regularized incomplete beta function I_x(a, b) with
    a = dof/2, b = 1/2 and x = dof / (dof + t^2).  Below the point
    (a+1)/(a+b+2) it is evaluated by its continued fraction (Numerical
    Recipes 6.4) with the modified Lentz method, and above it as
    1 - I_{1-x}(b, a), so the fraction always converges fast: in
    O(sqrt(dof)) terms at worst.  1 - x is taken as t^2 / (dof + t^2),
    and both logarithms through log1p, so neither loses digits.  The
    ratio Gamma(a + 1/2) / Gamma(a) in the prefactor comes from its
    asymptotic series at large dof, where a difference of log-gammas
    would lose relative precision (6e-9 at dof 1e6, and every digit by
    1e15).
    """
    if not isinstance(dof, numbers.Integral) or isinstance(dof, bool):
        raise ValueError(f"dof must be an integer, got {dof!r}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    t = abs(float(t))
    if math.isnan(t):
        return math.nan
    if t == math.inf:
        return 0.0
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = dof / 2.0, 0.5
    if t2 < math.inf:
        log_ratio = math.log1p(t2 / dof)          # log(1 + t^2/dof) = -log x
        x = dof / (dof + t2)
        inv_ratio = dof / t2
    else:
        # t^2 overflows; 1 + t^2/dof then rounds to t^2/dof
        log_ratio = 2.0 * math.log(t) - math.log(dof)
        x = inv_ratio = dof / t / t
    # log of x^a (1-x)^b / B(a, b)
    log_front = (_log_gamma_half_ratio(a) - math.lgamma(b)
                 - a * log_ratio - b * math.log1p(inv_ratio))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, t2 / (dof + t2)) / b


def _log_gamma_half_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a) for a > 0: the difference of
    ``math.lgamma`` below _HALF_RATIO_MIN_A, the asymptotic series from
    there on."""
    if a < _HALF_RATIO_MIN_A:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    series = 0.0
    for coeff in reversed(_HALF_RATIO_SERIES):
        series = series * z + coeff
    return 0.5 * math.log(a) + series / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) * a / (x^a (1-x)^b / B(a, b)),
    evaluated by the modified Lentz method (Numerical Recipes 5.2, 6.4)."""
    def nonzero(value: float) -> float:
        return value if abs(value) >= _TINY else _TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _MAX_FRACTION_TERMS):
        m2 = 2 * m
        # even step: d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m))
        coeff = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        d = 1.0 / nonzero(1.0 + coeff * d)
        c = nonzero(1.0 + coeff / c)
        h *= d * c
        # odd step: d_2m+1 = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1))
        coeff = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        d = 1.0 / nonzero(1.0 + coeff * d)
        c = nonzero(1.0 + coeff / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def write_regression_report(result: RegressionResult, path: str | Path) -> None:
    """Comma-delimited report, one row per feature in design order, plus
    a footer with n, p and R^2."""
    n = result.residual_dof + len(result.feature_names)
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for i, name in enumerate(result.feature_names):
            writer.writerow((
                name,
                f"{result.coefficients[i]:.6e}",
                f"{result.std_errors[i]:.6e}",
                f"{result.t_stats[i]:.4f}",
                f"{result.p_values[i]:.4g}",
            ))
        handle.write(
            f"# n={n} p={len(result.feature_names)} r_squared={result.r_squared:.6f}\n"
        )
