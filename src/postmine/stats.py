"""Design-matrix encoding and ordinary least squares with classical
inference (standard errors, t-statistics, two-sided Student-t
p-values).

The solve goes through a QR factorization for numerical stability; a
normal-equations solve exists only as an independent oracle in the test
suite.  Rank deficiency is detected from the singular values (ratio
below 1e-10 of the largest) and reported with the name of a dependent
column rather than silently regularized.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import InstitutionRecord, Region
from .errors import DataError, RankDeficientError

RANK_TOLERANCE = 1e-10
_EPS = 2.0 ** -53

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


@dataclass(frozen=True)
class DesignMatrix:
    feature_names: tuple[str, ...]
    rows: np.ndarray       # n x p, final column is the intercept constant 1
    response: np.ndarray   # n


@dataclass(frozen=True)
class RegressionResult:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
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
    rates: Mapping[str, float],
) -> DesignMatrix:
    """Encode institutions as regression rows, response = posting rate.

    Column order: M/F ratio, enrollment, private dummy, region dummies
    (Northeast, West, South; Midwest is the omitted reference), the
    normalized official case rate, and the intercept constant.
    """
    rows = []
    response = []
    for inst in institutions:
        if inst.institution_id not in rates:
            raise DataError(f"no response rate for institution {inst.institution_id!r}")
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
        response.append(rates[inst.institution_id])
    return DesignMatrix(
        feature_names=DESIGN_COLUMNS,
        rows=np.array(rows, dtype=np.float64),
        response=np.array(response, dtype=np.float64),
    )


def _first_dependent_column(x: np.ndarray, names: Sequence[str]) -> str:
    rank = 0
    for j in range(x.shape[1]):
        new_rank = np.linalg.matrix_rank(x[:, : j + 1])
        if new_rank == rank:
            return names[j]
        rank = new_rank
    return names[-1]


def ols_fit(design: DesignMatrix) -> RegressionResult:
    """Least-squares fit with classical standard errors.

    std_err_j = sqrt(sigma2 * (X'X)^-1_jj), sigma2 = RSS / (n - p);
    t_j = beta_j / se_j; p_j is the two-sided Student-t tail at n - p
    degrees of freedom.
    """
    x = np.asarray(design.rows, dtype=np.float64)
    y = np.asarray(design.response, dtype=np.float64)
    n, p = x.shape
    if n <= p:
        raise DataError(f"need more rows than features: n={n}, p={p}")
    singular = np.linalg.svd(x, compute_uv=False)
    if singular[-1] < RANK_TOLERANCE * singular[0]:
        name = _first_dependent_column(x, design.feature_names)
        raise RankDeficientError(f"design matrix is rank deficient at column {name!r}")

    q, r = np.linalg.qr(x)
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    dof = n - p
    sigma2 = rss / dof
    r_inv = np.linalg.solve(r, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    std_errors = np.sqrt(sigma2 * np.diag(xtx_inv))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_errors > 0, beta / std_errors,
                           np.sign(beta) * np.inf)
    p_values = np.array([t_pvalue(float(t), dof) for t in t_stats])
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else float("nan")
    return RegressionResult(
        feature_names=design.feature_names,
        coefficients=beta,
        std_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        residual_dof=dof,
        r_squared=r_squared,
    )


def t_pvalue(t: float, dof: int) -> float:
    """Two-sided Student-t tail probability P(|T| >= |t|) at an integer
    dof; symmetric in t, monotone decreasing in |t|, exactly 1 at t = 0.

    Closed form of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even
    dof).  With theta = atan(|t| / sqrt(dof)) and x = cos^2(theta), both
    give the tail as ``full - pre * sum(c_j * x**j for j < m)``, where
    the series continued to infinity sums to ``full / pre``.  When that
    difference is below 0.5, the tail is instead summed directly as
    ``pre * sum(c_j * x**j for j >= m)``: every term is positive, so
    small p-values keep full relative precision.
    """
    if not isinstance(dof, numbers.Integral) or isinstance(dof, bool):
        raise ValueError(f"dof must be an integer, got {dof!r}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    t = abs(float(t))
    root = math.sqrt(dof)
    hyp = math.hypot(t, root)
    sin, cos = t / hyp, root / hyp
    x = cos * cos
    odd = dof % 2
    # term is c_j * x**j: c_0 = 1 and c_{j+1} / c_j = (2j+1+odd) / (2j+2+odd),
    # so c_j is (2j-1)!!/(2j)!! for even dof and (2j)!!/(2j+1)!! for odd.
    m = (dof - 1) // 2 if odd else dof // 2
    head = 0.0
    term = 1.0
    for j in range(m):
        head += term
        term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if odd:
        pre = 2.0 * sin * cos / math.pi
        p = 2.0 * (math.atan2(root, t) - sin * cos * head) / math.pi
    else:
        pre = sin
        p = 1.0 - sin * head
    if p >= 0.5:
        return p
    # The terms fall faster than x**j, so what is left after a term is
    # below term / (1 - x).
    tail = 0.0
    j = m
    while True:
        tail += term
        term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
        j += 1
        if term <= _EPS * (1.0 - x) * tail:
            return pre * tail


def write_regression_report(result: RegressionResult, path: str | Path) -> None:
    """Comma-delimited report, one row per feature in design order, plus
    a footer with n, p and R^2."""
    n = result.residual_dof + len(result.feature_names)
    with open(path, "w", encoding="utf-8", newline="") as handle:
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


def unique_user_rates(
    posts_by_institution: Mapping[str, set[str]],
    institutions: Iterable[InstitutionRecord],
) -> dict[str, float]:
    """Response rates: unique posting users per enrolled student, zero
    for institutions with no posts."""
    return {
        inst.institution_id: normalize_rate(
            len(posts_by_institution.get(inst.institution_id, set())),
            inst.enrollment,
        )
        for inst in institutions
    }
