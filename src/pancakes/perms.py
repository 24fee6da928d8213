"""Permutations, signed permutations, prefix-reversal flips, and rank encodings.

Unsigned permutations of [n] are stored in one-line notation ``p(1) ... p(n)``.
Signed permutations are stored in window notation ``[w(1) ... w(n)]`` where the
absolute values form a permutation of [n] and each entry carries a sign; the
other half of the window is implied by ``w(-i) = -w(i)``.

A flip ``r_i`` reverses the first ``i`` entries of the stored notation (the
signed variant also negates them), i.e. flips act by right multiplication.
``r_1`` is excluded for unsigned permutations because it does nothing there.

Ranks are lexicographic (Lehmer-code) indices: ``rank`` maps S_n onto
``[0, n!)`` and ``srank`` maps signed permutations onto ``[0, 2^n * n!)`` with
the unsigned rank in the high bits and one sign bit per position in the low
``n`` bits, so all sign variants of one arrangement are contiguous. Both are
thin calls into one Lehmer ranking of a bare entry tuple (``_lehmer``, and
``_signed_lehmer`` for the sign bits), as :func:`apply_flip` and
:func:`apply_signed_flip` are into one flip of a bare entry tuple per kind
(``_flip`` and ``_signed_flip``). The cycle census calls these directly: its
closing check flips entry tuples, and it ranks them where ranks outgrow the
int64 of the batch kernels. Validation stays in the :class:`Perm` and
:class:`SignedPerm` constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# a signed entry -n fits the int8 windows of the whole-batch signed kernels
# (batch_sunrank, batch_signed_flip, batch_srank), and n the u8 of a
# checkpoint header. The layer search refuses plain n > 20 and burnt n > 16
# sooner, where ranks outgrow int64; the queries take up to MAX_N
MAX_N = 127

__all__ = [
    "MAX_N",
    "Perm",
    "SignedPerm",
    "PermError",
    "FlipRangeError",
    "RankRangeError",
    "ParseError",
    "apply_flip",
    "apply_signed_flip",
    "rank",
    "unrank",
    "srank",
    "sunrank",
    "parse_perm",
    "format_perm",
]


class PermError(ValueError):
    """A value does not satisfy the permutation invariants."""


class FlipRangeError(PermError):
    """Flip index outside the valid range for the permutation kind."""


class RankRangeError(PermError):
    """Rank index outside [0, n!) or [0, 2^n * n!)."""


class ParseError(PermError):
    """Malformed permutation text; ``token`` names the offending token."""

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token


def _check_entries(entries: tuple[int, ...], signed: bool) -> None:
    n = len(entries)
    if n < 1:
        raise PermError("permutation must have at least one entry")
    if n > MAX_N:
        raise PermError(f"n={n} exceeds the supported maximum of {MAX_N}")
    seen = set()
    for v in entries:
        a = abs(v)
        if not signed and v <= 0:
            raise PermError(f"entry {v} must be positive in an unsigned permutation")
        if a < 1 or a > n:
            raise PermError(f"entry {v} outside [1, {n}]")
        if a in seen:
            raise PermError(f"duplicate value {a}")
        seen.add(a)


@dataclass(frozen=True, slots=True)
class Perm:
    """Unsigned permutation in one-line notation; a vertex of the pancake graph."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_entries(self.entries, signed=False)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(1, n + 1)))

    def __str__(self) -> str:
        return format_perm(self)


@dataclass(frozen=True, slots=True)
class SignedPerm:
    """Signed permutation in window notation; a vertex of the burnt pancake graph."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_entries(self.entries, signed=True)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(1, n + 1)))

    def __str__(self) -> str:
        return format_perm(self)


def _flip(entries: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Bare entries with the first ``i`` reversed; ``i`` is not checked."""
    return entries[i - 1 :: -1] + entries[i:]


def _signed_flip(entries: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Bare entries with the first ``i`` reversed and negated; ``i`` is not checked."""
    return tuple(-v for v in entries[i - 1 :: -1]) + entries[i:]


def apply_flip(p: Perm, i: int) -> Perm:
    """Reverse the first ``i`` entries of ``p`` (2 <= i <= n)."""
    if not 2 <= i <= p.n:
        raise FlipRangeError(f"flip index {i} out of range [2, {p.n}]")
    return Perm(_flip(p.entries, i))


def apply_signed_flip(s: SignedPerm, i: int) -> SignedPerm:
    """Reverse and negate the first ``i`` entries of ``s`` (1 <= i <= n)."""
    if not 1 <= i <= s.n:
        raise FlipRangeError(f"flip index {i} out of range [1, {s.n}]")
    return SignedPerm(_signed_flip(s.entries, i))


def _lehmer(values: Sequence[int]) -> int:
    """Lexicographic index of ``values``, a permutation of [n], by Horner's rule.

    Each value's Lehmer digit is its index among the values not yet seen.
    It takes the bare entries, so a caller that holds them as a tuple ranks
    them without building (and validating) a :class:`Perm`.
    """
    n = len(values)
    pool = list(range(1, n + 1))
    r = 0
    for pos, v in enumerate(values):
        d = pool.index(v)
        del pool[d]
        r = r * (n - pos) + d
    return r


def _signed_lehmer(entries: Sequence[int]) -> int:
    """:func:`_lehmer` of the absolute values, shifted above one sign bit per
    position in the low ``n`` bits."""
    bits = 0
    for idx, v in enumerate(entries):
        if v < 0:
            bits |= 1 << idx
    return _lehmer([abs(v) for v in entries]) << len(entries) | bits


def rank(p: Perm) -> int:
    """Lexicographic index of ``p`` among all n! one-line notations."""
    return _lehmer(p.entries)


def unrank(n: int, r: int) -> Perm:
    """Inverse of :func:`rank` for the given ``n``."""
    if not 0 <= r < math.factorial(n):
        raise RankRangeError(f"rank {r} out of range [0, {n}!)")
    pool = list(range(1, n + 1))
    out = []
    f = math.factorial(n - 1)
    for pos in range(n):
        d, r = divmod(r, f)
        out.append(pool.pop(d))
        if pos < n - 1:
            f //= n - 1 - pos
    return Perm(tuple(out))


def srank(s: SignedPerm) -> int:
    """Unsigned rank of |s| in the high bits, one sign bit per position below."""
    return _signed_lehmer(s.entries)


def sunrank(n: int, r: int) -> SignedPerm:
    """Inverse of :func:`srank` for the given ``n``."""
    if not 0 <= r < math.factorial(n) * (1 << n):
        raise RankRangeError(f"rank {r} out of range [0, 2^{n} * {n}!)")
    q, bits = divmod(r, 1 << n)
    base = unrank(n, q).entries
    return SignedPerm(tuple(-v if bits >> idx & 1 else v for idx, v in enumerate(base)))


def parse_perm(text: str) -> Perm | SignedPerm:
    """Parse whitespace-separated entries; surrounding brackets mean signed.

    ``"1 2 3"`` parses as a :class:`Perm`, ``"[-2 1 3]"`` as a
    :class:`SignedPerm`. Raises :class:`ParseError` naming the offending token.
    """
    stripped = text.strip()
    signed = False
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise ParseError("missing closing bracket", token=stripped)
        stripped = stripped[1:-1]
        signed = True
    elif stripped.endswith("]"):
        raise ParseError("missing opening bracket", token=stripped)
    tokens = stripped.split()
    if not tokens:
        raise ParseError("empty permutation", token=text.strip())
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"malformed token {tok!r}", token=tok) from None
    n = len(values)
    seen = set()
    for tok, v in zip(tokens, values):
        a = abs(v)
        if not signed and v <= 0:
            raise ParseError(f"negative entry {tok!r} requires bracket syntax", token=tok)
        if a < 1 or a > n:
            raise ParseError(f"value {tok!r} out of [1, {n}]", token=tok)
        if a in seen:
            raise ParseError(f"duplicate value {tok!r}", token=tok)
        seen.add(a)
    if signed:
        return SignedPerm(tuple(values))
    return Perm(tuple(values))


def format_perm(p: Perm | SignedPerm) -> str:
    """Inverse of :func:`parse_perm`: brackets for signed, bare entries otherwise."""
    body = " ".join(str(v) for v in p.entries)
    if isinstance(p, SignedPerm):
        return f"[{body}]"
    return body
