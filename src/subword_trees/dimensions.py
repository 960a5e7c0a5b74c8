"""Growth-class analysis of subword-closed languages.

Two integer parameters decide, together with finiteness of the language and
emptiness of its complement, how fast the four decision-tree depth measures
grow with the slice length: the homogeneity dimension (largest ``m`` such that
``a^m a' a^m`` is a member for some letter ``a``, with ``a'`` the opposite
letter) and the heterogeneity dimension (same with test word ``a^m a'^m``).
Each language falls into exactly one of five classes with a fixed growth
signature per measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .language import ALPHABET, Language

INFINITY = math.inf

CONSTANT = "CONSTANT"
LOG = "LOG"
LINEAR = "LINEAR"

MEASURES = ("rd", "ra", "md", "ma")

#: Growth signature (rd, ra, md, ma) per class index.
CLASS_PREDICTIONS: dict[int, dict[str, str]] = {
    1: {"rd": LINEAR, "ra": LINEAR, "md": LINEAR, "ma": LINEAR},
    2: {"rd": LINEAR, "ra": LINEAR, "md": CONSTANT, "ma": CONSTANT},
    3: {"rd": LOG, "ra": CONSTANT, "md": LINEAR, "ma": LINEAR},
    4: {"rd": CONSTANT, "ra": CONSTANT, "md": LINEAR, "ma": LINEAR},
    5: {"rd": CONSTANT, "ra": CONSTANT, "md": CONSTANT, "ma": CONSTANT},
}


@dataclass(frozen=True)
class DimensionReport:
    """Classification summary for one language."""

    name: str
    hom: int | float
    het: int | float
    is_finite_language: bool
    complement_empty: bool
    shortest_complement_word_length: int | None
    class_index: int
    predictions: dict[str, str]


def _threshold(f: str, a: str, hetero: bool) -> int | float:
    """Least m whose test word for letter ``a`` embeds the obstruction ``f``;
    infinite when no test word does.

    Into ``a^m a' a^m`` only ``a^i`` (once 2m >= i) and ``a^i a' a^j`` (once
    m >= max(i, j)) embed; into ``a^m a'^m`` only ``a^i a'^j`` (once
    m >= max(i, j)).
    """
    other = "1" if a == "0" else "0"
    i = len(f) - len(f.lstrip(a))
    rest = f[i:]  # empty, or starts with the other letter
    if hetero:
        return INFINITY if rest.strip(other) else max(i, len(rest))
    if not rest:
        return (i + 1) // 2
    return INFINITY if rest[1:].strip(a) else max(i, len(rest) - 1)


def _dimension(lang: Language, hetero: bool) -> int | float:
    """Closed form shared by both dimensions.

    The test word of letter ``a`` is a member exactly while m is below the
    least threshold of the obstructions, so the largest qualifying m is that
    threshold minus one (infinite when no obstruction can embed).  The
    dimension is the larger over the two letters.  Languages where no m
    qualifies (the empty language, or {empty word} for the homogeneity case)
    get 0 by convention.
    """
    best = 0
    for a in ALPHABET:
        least = min((_threshold(f, a, hetero) for f in lang.obstructions), default=INFINITY)
        best = max(best, least - 1)
    return best


def homogeneity_dimension(lang: Language) -> int | float:
    """Largest m with ``a^m a' a^m`` in the language for some letter a; inf if unbounded."""
    return _dimension(lang, hetero=False)


def heterogeneity_dimension(lang: Language) -> int | float:
    """Largest m with ``a^m a'^m`` in the language for some letter a; inf if unbounded."""
    return _dimension(lang, hetero=True)


def finiteness_flags(lang: Language) -> tuple[bool, bool, int | None]:
    """(is_finite_language, complement_empty, shortest_complement_word_length).

    The language is infinite iff for some letter ``a`` no obstruction consists
    solely of ``a``-letters: then every ``a^m`` is a member.  The complement is
    empty iff there are no obstructions.  A shortest complement word is always
    a shortest obstruction (obstructions are themselves non-members, and any
    non-member contains one).
    """
    is_infinite = any(
        not any(set(f) <= {a} for f in lang.obstructions) for a in ALPHABET
    )
    if not lang.obstructions:
        return (False, True, None)
    return (not is_infinite, False, min(len(f) for f in lang.obstructions))


def matching_classes(
    hom_infinite: bool, het_infinite: bool, is_finite: bool, complement_empty: bool
) -> list[int]:
    """Class indices whose defining row matches the four flags (should be exactly one)."""
    rows = []
    if hom_infinite and not complement_empty:
        rows.append(1)
    if hom_infinite and complement_empty:
        rows.append(2)
    if not hom_infinite and het_infinite:
        rows.append(3)
    if not hom_infinite and not het_infinite and not is_finite:
        rows.append(4)
    if not hom_infinite and not het_infinite and is_finite:
        rows.append(5)
    return rows


def classify(lang: Language) -> DimensionReport:
    """Full dimension report: both dimensions, finiteness flags, class, growth row."""
    hom = homogeneity_dimension(lang)
    het = heterogeneity_dimension(lang)
    finite, comp_empty, shortest = finiteness_flags(lang)
    rows = matching_classes(hom == INFINITY, het == INFINITY, finite, comp_empty)
    if len(rows) != 1:
        raise AssertionError(f"flags match {len(rows)} class rows for {lang.name}")
    cls = rows[0]
    return DimensionReport(
        name=lang.name,
        hom=hom,
        het=het,
        is_finite_language=finite,
        complement_empty=comp_empty,
        shortest_complement_word_length=shortest,
        class_index=cls,
        predictions=dict(CLASS_PREDICTIONS[cls]),
    )


def slice_size_bound(lang: Language) -> int | None:
    """Uniform bound on slice sizes when both dimensions are finite, else None.

    With m the larger dimension and t = 2m, every slice has at most
    ``2^(3t+3) * (2t+4)`` words: each member splits into three fragments of
    length at most t around two single-letter runs, and one run length is
    bounded by m.
    """
    hom = homogeneity_dimension(lang)
    het = heterogeneity_dimension(lang)
    if hom == INFINITY or het == INFINITY:
        return None
    t = 2 * int(max(hom, het))
    return 2 ** (3 * t + 3) * (2 * t + 4)


def format_extended(value: int | float) -> str:
    return "inf" if value == INFINITY else str(int(value))
