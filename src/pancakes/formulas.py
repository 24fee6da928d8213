"""Closed-form layer-count polynomials and the identities relating them.

Every known closed form for R_k(n) (permutations at pancake distance k) and
R_k^B(n) (signed variant) is registered as a :class:`FormulaSpec`: an exact
rational-coefficient polynomial stored as integer coefficients over a single
integer denominator, a validity threshold ``min_n``, and explicit exceptional
values for the isolated n the polynomial does not cover. The registry
evaluates each published factored form at n = 0..k+2, fits it by forward
differences and expands the fit in powers of n. All arithmetic is exact; a
division that does not come out exact is a hard error (it would mean a
transcribed coefficient is wrong), never rounding.

Beyond evaluation and crosschecking against BFS output, the module checks two
summation identities on tabulated data and fits integer-valued polynomials to
layer counts by forward differences (Gregory–Newton form), which is how the
conjectured signed-variant polynomials were found in the first place.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .graphs import GraphKind
from .tables import known_counts

if TYPE_CHECKING:  # annotations only: importing this module loads no engine
    from .search import LayerProfile

__all__ = [
    "FormulaStatus",
    "FormulaSpec",
    "OutOfValidity",
    "OUT_OF_VALIDITY",
    "UnknownFormulaError",
    "FitError",
    "Verdict",
    "NewtonPoly",
    "CrosscheckRow",
    "CrosscheckReport",
    "IdentityReport",
    "eval_formula",
    "get_formula",
    "formula_names",
    "crosscheck",
    "check_recurrence_cor62",
    "check_gregory_newton_con63",
    "fit_newton",
    "published_cells",
]


class UnknownFormulaError(ValueError):
    """No formula is registered under the requested name."""


class FitError(ValueError):
    """Forward differences never stabilize within the supplied data."""


class FormulaStatus(enum.Enum):
    """Epistemic status, carried through every report.

    PROVED formulas are theorems; CONJECTURED ones are supported by data
    only; PUBLISHED_ELSEWHERE marks polynomials taken from the output of an
    external enumeration algorithm rather than derived here.
    """

    PROVED = "proved"
    CONJECTURED = "conjectured"
    PUBLISHED_ELSEWHERE = "published-elsewhere"


class OutOfValidity:
    """Singleton returned when n is below a formula's range with no exception.

    Below ``min_n`` the tables show genuinely different values, so returning
    0 (or extrapolating the polynomial) would be silently wrong.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OutOfValidity"

    def __bool__(self) -> bool:
        return False


OUT_OF_VALIDITY = OutOfValidity()


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"{what}: {numerator} is not divisible by {denominator}; "
            "a registered coefficient must be wrong"
        )
    return quotient


@dataclass(frozen=True, slots=True)
class FormulaSpec:
    """One registered closed form for a layer count.

    ``coefficients`` are ascending-power integers over ``denominator``; the
    polynomial applies for n >= ``min_n``; ``exceptions`` are explicit
    (n, value) overrides for isolated points the polynomial misses. When
    ``cumulative`` is set the formula counts all permutations within
    distance k (a running sum of layers), not the single layer k.
    """

    name: str
    k: int
    kind: GraphKind
    status: FormulaStatus
    min_n: int
    coefficients: tuple[int, ...]
    denominator: int
    exceptions: Mapping[int, int] = field(default_factory=dict)
    cumulative: bool = False

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value_at(self, n: int) -> int | OutOfValidity:
        """Exact value at n, the stored exception, or OUT_OF_VALIDITY."""
        if n in self.exceptions:
            return self.exceptions[n]
        if n < self.min_n:
            return OUT_OF_VALIDITY
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return _exact_div(acc, self.denominator, self.name)


def _spec(name, k, kind, status, min_n, form, exceptions=None, cumulative=False):
    # fit the form exactly at n = 0..k+2, then write each c_m * C(n, m) as
    # c_m * (k!/m!) * n(n-1)...(n-m+1) over k! and reduce by the gcd
    values = [Fraction(form(n)) for n in range(k + 3)]
    if any(value.denominator != 1 for value in values):
        raise ArithmeticError(f"{name}: the registered form is not integer-valued")
    try:
        newton = fit_newton(enumerate(map(int, values)))
    except FitError:
        newton = None
    if newton is None or newton.degree != k:
        raise ArithmeticError(f"{name}: the registered form is not of degree {k}")
    den = math.factorial(k)
    coeffs = [0] * (k + 1)
    falling = [1]  # n(n-1)...(n-m+1) in ascending powers
    for m, c in enumerate(newton.coefficients):
        for i, a in enumerate(falling):
            coeffs[i] += c * (den // math.factorial(m)) * a
        falling = [a - m * b for a, b in zip([0, *falling], [*falling, 0])]
    g = math.gcd(den, *coeffs)
    return FormulaSpec(
        name=name,
        k=k,
        kind=kind,
        status=status,
        min_n=min_n,
        coefficients=tuple(c // g for c in coeffs),
        denominator=den // g,
        exceptions=dict(exceptions or {}),
        cumulative=cumulative,
    )


_PROVED = FormulaStatus.PROVED
_CONJ = FormulaStatus.CONJECTURED
_EXT = FormulaStatus.PUBLISHED_ELSEWHERE

_PLAIN_LAYER_FORMS = {
    0: lambda n: 1,
    1: lambda n: n - 1,
    2: lambda n: (n - 1) * (n - 2),
    3: lambda n: (n - 1) * (n - 2) ** 2 - 1,
    4: lambda n: Fraction(1, 2) * (2 * n**4 - 15 * n**3 + 29 * n**2 + 6 * n - 34),
    5: lambda n: Fraction(1, 6)
    * (6 * n**5 - 65 * n**4 + 173 * n**3 + 296 * n**2 - 1724 * n + 1590),
    6: lambda n: Fraction(1, 60)
    * (
        60 * n**6
        - 883 * n**5
        + 3140 * n**4
        + 10775 * n**3
        - 91400 * n**2
        + 171068 * n
        - 58020
    ),
    7: lambda n: Fraction(1, 240)
    * (
        240 * n**7
        - 4619 * n**6
        + 21881 * n**5
        + 109275 * n**4
        - 1372445 * n**3
        + 4476344 * n**2
        - 4550196 * n
        - 850320
    ),
    8: lambda n: Fraction(1, 5040)
    * (
        5040 * n**8
        - 122683 * n**7
        + 759857 * n**6
        + 4519067 * n**5
        - 79101715 * n**4
        + 364661948 * n**3
        - 561161062 * n**2
        - 267373812 * n
        + 844945920
    ),
}

_BURNT_LAYER_FORMS = {
    0: lambda n: 1,
    1: lambda n: n,
    2: lambda n: n * (n - 1),
    3: lambda n: n * (n - 1) ** 2,
    4: lambda n: Fraction(1, 2) * n * (n - 1) ** 2 * (2 * n - 3),
    5: lambda n: Fraction(1, 6) * n * (n - 1) * (n - 2) * (6 * n**2 - 17 * n + 3),
    6: lambda n: Fraction(1, 60)
    * n
    * (n - 1)
    * (n - 2)
    * (60 * n**3 - 343 * n**2 + 401 * n + 284),
    7: lambda n: Fraction(1, 240)
    * n
    * (n - 1)
    * (n - 2)
    * (n - 3)
    * (240 * n**3 - 1499 * n**2 + 925 * n + 5104),
    8: lambda n: Fraction(1, 5040)
    * n
    * (n - 1)
    * (n - 2)
    * (n - 3)
    * (5040 * n**4 - 52123 * n**3 + 113415 * n**2 + 314716 * n - 1027242),
    9: lambda n: Fraction(1, 40320)
    * (n - 1)
    * (n - 2)
    * (n - 3)
    * (n - 4)
    * (
        40320 * n**5
        - 444061 * n**4
        + 644746 * n**3
        + 6638777 * n**2
        - 18991470 * n
    ),
}

# The degree-8 polynomial agrees with exhaustive BFS and the reference table
# for every n from 10 through 21 but misses n = 8 (by +2) and n = 9 (by -2),
# so its validity starts at 10; the three earlier nonzero layer counts are
# stored as exceptional values.
_PLAIN_MIN_N = {0: 1, 1: 1, 2: 3, 3: 3, 4: 4, 5: 5, 6: 6, 7: 8, 8: 10}
_PLAIN_EXCEPTIONS = {7: {6: 2, 7: 1016}, 8: {7: 35, 8: 8520, 9: 132697}}
_PLAIN_STATUS = {k: (_PROVED if k <= 4 else _EXT) for k in range(9)}

_REGISTRY: dict[str, FormulaSpec] = {}  # filled at the end of the module


def _normalize(name: str) -> str:
    flat = name.strip().lower().replace("_", "-").replace(" ", "-")
    if flat.endswith("-conj"):
        flat = flat[: -len("-conj")]
    return flat


def formula_names() -> tuple[str, ...]:
    """All registered formula names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_formula(name: str) -> FormulaSpec:
    """Look up a formula; names are case/underscore-insensitive."""
    spec = _REGISTRY.get(_normalize(name))
    if spec is None:
        raise UnknownFormulaError(
            f"unknown formula {name!r}; known: {', '.join(formula_names())}"
        )
    return spec


def eval_formula(name: str, n: int) -> int | OutOfValidity:
    """Exact value of a registered formula at n, or OUT_OF_VALIDITY.

    The epistemic status of the value is ``get_formula(name).status``; every
    report built on top of this carries it.
    """
    return get_formula(name).value_at(n)


@dataclass(frozen=True, slots=True)
class CrosscheckRow:
    """One per-n comparison of a formula value against BFS output."""

    n: int
    formula_value: int
    profile_value: int
    used_exception: bool

    @property
    def equal(self) -> bool:
        return self.formula_value == self.profile_value


@dataclass(frozen=True, slots=True)
class CrosscheckReport:
    """Outcome of comparing one formula against a set of layer profiles."""

    name: str
    status: FormulaStatus
    rows: tuple[CrosscheckRow, ...]
    skipped: tuple[int, ...]  # n outside the formula's validity

    @property
    def ok(self) -> bool:
        return all(row.equal for row in self.rows)

    @property
    def mismatches(self) -> tuple[CrosscheckRow, ...]:
        return tuple(row for row in self.rows if not row.equal)

    @property
    def summary(self) -> str:
        if not self.ok:
            bad = ", ".join(str(row.n) for row in self.mismatches)
            return f"mismatch at n={bad}"
        if not self.rows:
            return "no data in validity range"
        if self.status is FormulaStatus.PROVED:
            return "verified"
        return "consistent with data"


def crosscheck(name: str, profiles: Iterable[LayerProfile]) -> CrosscheckReport:
    """Compare a formula against BFS layer profiles, n by n.

    Profiles outside the formula's validity (and not covered by a stored
    exception) are skipped, not counted as mismatches. Conjectured formulas
    can at best be reported consistent with the data, never verified.
    """
    spec = get_formula(name)
    rows = []
    skipped = []
    for profile in sorted(profiles, key=lambda p: p.n):
        if profile.kind is not spec.kind:
            raise ValueError(
                f"graph-kind mismatch: {spec.name} is a {spec.kind.name.lower()}"
                f" formula, profile is for {profile.graph}"
            )
        expected = spec.value_at(profile.n)
        if expected is OUT_OF_VALIDITY:
            skipped.append(profile.n)
            continue
        counts = profile.counts
        if spec.cumulative:
            actual = sum(counts[: spec.k + 1])
            if not profile.complete and len(counts) <= spec.k:
                skipped.append(profile.n)
                continue
        elif spec.k < len(counts):
            actual = counts[spec.k]
        elif profile.complete:
            actual = 0  # beyond the eccentricity: the layer is empty
        else:
            skipped.append(profile.n)
            continue
        rows.append(
            CrosscheckRow(
                n=profile.n,
                formula_value=expected,
                profile_value=actual,
                used_exception=profile.n in spec.exceptions,
            )
        )
    return CrosscheckReport(
        name=spec.name, status=spec.status, rows=tuple(rows), skipped=tuple(skipped)
    )


class Verdict(enum.Enum):
    """Outcome of checking an identity on tabulated data."""

    HOLDS = "holds"
    FAILS = "fails"
    INSUFFICIENT = "insufficient-data"


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Outcome of one identity check at a specific (k, n)."""

    identity: str
    k: int
    n: int
    verdict: Verdict
    lhs: int | None = None  # tabulated value of the left-hand side
    rhs: int | None = None  # recomputed sum
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.FAILS


def published_cells(kind: GraphKind) -> dict[tuple[int, int], int]:
    """Known layer counts as a {(k, n): value} map (zeros are genuine)."""
    return {
        (k, n): value
        for n, row in known_counts(kind).items()
        for k, value in enumerate(row)
    }


def check_recurrence_cor62(
    k: int, n: int, table: Mapping[tuple[int, int], int] | None = None
) -> IdentityReport:
    """Check the alternating-sum recurrence on one layer column.

    For k <= 6 and all of R_k(n-1..n-k-1) positive, the layer count satisfies
    R_k(n) = sum_{i=1}^{k+1} (-1)^(i+1) C(k+1, i) R_k(n-i). Any required
    entry missing from the table, or the positivity precondition failing,
    yields INSUFFICIENT; the identity is only asserted under its hypotheses.
    """
    if k > 6:
        raise ValueError(f"the recurrence is only established for k <= 6, got k={k}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got k={k}")
    if table is None:
        table = published_cells(GraphKind.PLAIN)

    def report(verdict, lhs=None, rhs=None, reason=""):
        return IdentityReport("cor62", k, n, verdict, lhs, rhs, reason)

    lhs = table.get((k, n))
    if lhs is None:
        return report(Verdict.INSUFFICIENT, reason=f"R_{k}({n}) is not tabulated")
    rhs = 0
    for i in range(1, k + 2):
        term = table.get((k, n - i))
        if term is None:
            return report(
                Verdict.INSUFFICIENT, lhs, reason=f"R_{k}({n - i}) is not tabulated"
            )
        if term <= 0:
            return report(
                Verdict.INSUFFICIENT,
                lhs,
                reason=f"R_{k}({n - i}) = {term} violates the positivity hypothesis",
            )
        rhs += (-1) ** (i + 1) * math.comb(k + 1, i) * term
    return report(Verdict.HOLDS if lhs == rhs else Verdict.FAILS, lhs, rhs)


def check_gregory_newton_con63(
    k: int, n: int, table: Mapping[tuple[int, int], int] | None = None
) -> IdentityReport:
    """Check the base-case expansion of a signed layer count.

    The k-th signed layer count is conjectured to be a degree-k
    integer-valued polynomial vanishing at n = 0, which pins it down from
    its first k values:

        R_k^B(n) = sum_{j=1}^k ( sum_{i=0}^{k-j} (-1)^i C(i+j, i) C(n, i+j) ) R_k^B(j)

    The right-hand side is the Newton form through the points
    (0, 0), (1, R_k^B(1)), ..., (k, R_k^B(k)). Missing base values
    R_k^B(1..k), or a missing target cell, yield INSUFFICIENT.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got k={k}")
    if table is None:
        table = published_cells(GraphKind.BURNT)

    def report(verdict, lhs=None, rhs=None, reason=""):
        return IdentityReport("con63", k, n, verdict, lhs, rhs, reason)

    lhs = table.get((k, n))
    if lhs is None:
        return report(Verdict.INSUFFICIENT, reason=f"R_{k}^B({n}) is not tabulated")
    bases = [0]
    for j in range(1, k + 1):
        base = table.get((k, j))
        if base is None:
            return report(
                Verdict.INSUFFICIENT,
                lhs,
                reason=f"base value R_{k}^B({j}) is not tabulated",
            )
        bases.append(base)
    rhs = NewtonPoly(0, _differences(bases))(n)
    return report(Verdict.HOLDS if lhs == rhs else Verdict.FAILS, lhs, rhs)


def _differences(values: Sequence[int]) -> tuple[int, ...]:
    """Leading entry of each forward-difference row of ``values``: for values
    at n_0, n_0 + 1, ... the binomial-basis coefficients of their polynomial."""
    row = list(values)
    leading = []
    while row:
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(leading)


def _binomial(x: int, m: int) -> int:
    """C(x, m) for any integer x (falling factorial over m!), exactly."""
    numerator = 1
    for t in range(m):
        numerator *= x - t
    quotient, remainder = divmod(numerator, math.factorial(m))
    assert not remainder  # m consecutive integers always divide by m!
    return quotient


@dataclass(frozen=True, slots=True)
class NewtonPoly:
    """Integer-valued polynomial in the binomial basis anchored at n_0.

    p(n) = sum_m c_m * C(n - n_0, m); all c_m are integers, which is exactly
    the class of polynomials taking integer values on all integers.
    """

    n0: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, n: int) -> int:
        return sum(
            c * _binomial(n - self.n0, m) for m, c in enumerate(self.coefficients)
        )


def fit_newton(values: Iterable[tuple[int, int]]) -> NewtonPoly:
    """Fit an integer-valued polynomial to data at consecutive n.

    The binomial-basis coefficients are the leading entries of the
    forward-difference rows — no linear algebra and no floats. The degree is
    the last nonzero one; a zero after it witnesses the fit, as its row and
    every row below are then all zero.

    >>> fit_newton([(n, n * n) for n in range(4)])
    NewtonPoly(n0=0, coefficients=(0, 1, 2))
    """
    points = sorted(values)
    if len(points) < 2:
        raise ValueError("need at least two data points to fit")
    ns = [n for n, _ in points]
    for a, b in zip(ns, ns[1:]):
        if b != a + 1:
            raise ValueError(f"data points must be at consecutive n; gap at {a}..{b}")
    coefficients = _differences([v for _, v in points])
    degree = max((m for m, c in enumerate(coefficients) if c), default=0)
    if degree + 1 == len(coefficients):
        raise FitError(
            f"forward differences never stabilize within {len(points)} points; "
            "more data or no polynomial"
        )
    return NewtonPoly(n0=ns[0], coefficients=coefficients[: degree + 1])


# The registry is built here, below fit_newton, which _spec calls.
for _k in range(9):
    _REGISTRY[f"r{_k}-plain"] = _spec(
        f"r{_k}-plain",
        _k,
        GraphKind.PLAIN,
        _PLAIN_STATUS[_k],
        _PLAIN_MIN_N[_k],
        _PLAIN_LAYER_FORMS[_k],
        _PLAIN_EXCEPTIONS.get(_k),
    )

for _k in range(10):
    _REGISTRY[f"r{_k}-burnt"] = _spec(
        f"r{_k}-burnt",
        _k,
        GraphKind.BURNT,
        _PROVED if _k <= 4 else _CONJ,
        1,
        _BURNT_LAYER_FORMS[_k],
    )

# Cumulative counts within distance k: the form the external enumeration
# algorithm outputs. Valid once every summand's polynomial is valid.
for _k, _min_n in ((5, 5), (6, 6), (7, 8), (8, 10)):
    _REGISTRY[f"rtilde{_k}-plain"] = _spec(
        f"rtilde{_k}-plain",
        _k,
        GraphKind.PLAIN,
        _EXT,
        _min_n,
        lambda n, k=_k: sum(_PLAIN_LAYER_FORMS[i](n) for i in range(k + 1)),
        cumulative=True,
    )
