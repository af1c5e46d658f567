"""
Coxeter matrices and the standard Artin presentations they define.

A presentation is a symmetric n x n matrix over {1, 2, 3, ...} u {inf} with
1 on the diagonal and entries >= 2 elsewhere.  Label m between generators i
and j imposes the relation alt(i,j,m) = alt(j,i,m); an infinite label imposes
no relation.  Infinity is represented by ``math.inf`` so that comparisons
against integer thresholds just work; every label is stored as an int or
as the ``INF`` object itself, so ``label is INF`` decides a free pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .words import Word, alt_starting

INF = math.inf

MatrixEntry = float  # int labels or math.inf


class PresentationError(ValueError):
    """Malformed Coxeter matrix (asymmetric, bad diagonal, entry < 2)."""


@dataclass(frozen=True)
class CoxeterPresentation:
    """An Artin presentation given by its Coxeter matrix."""

    n: int
    m: tuple[tuple[MatrixEntry, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise PresentationError("need at least one generator")
        if len(self.m) != self.n or any(len(row) != self.n for row in self.m):
            raise PresentationError("matrix must be n x n")
        for i in range(self.n):
            if self.m[i][i] != 1:
                raise PresentationError("diagonal entries must equal 1")
            for j in range(self.n):
                if i == j:
                    continue
                if self.m[i][j] != self.m[j][i]:
                    raise PresentationError(f"matrix not symmetric at ({i},{j})")
                entry = self.m[i][j]
                if entry != INF and (entry < 2 or entry != int(entry)):
                    raise PresentationError(
                        f"off-diagonal entries must be integers >= 2 or inf, got {entry}"
                    )
        # one encoding per label: 4.0 is stored as 4, any float infinity as INF
        rows = tuple(tuple(INF if x == INF else int(x) for x in row) for row in self.m)
        object.__setattr__(self, "m", rows)

    @staticmethod
    def from_labels(n: int, labels: dict[tuple[int, int], MatrixEntry]) -> "CoxeterPresentation":
        """Build from 1-based pair labels; missing pairs default to inf."""
        rows = [[INF] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        for (i, j), m in labels.items():
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise PresentationError(f"pair ({i}, {j}) is not two distinct generators of 1..{n}")
            rows[i - 1][j - 1] = m
            rows[j - 1][i - 1] = m
        return CoxeterPresentation(n, tuple(tuple(r) for r in rows))

    @staticmethod
    def dihedral(m: MatrixEntry) -> "CoxeterPresentation":
        return CoxeterPresentation.from_labels(2, {(1, 2): m})

    def label(self, i: int, j: int) -> MatrixEntry:
        """Label between generators i and j (1-based)."""
        return self.m[i - 1][j - 1]

    def pairs(self):
        """All 1-based pairs (i, j) with i < j."""
        return combinations(range(1, self.n + 1), 2)

    def finite_pairs(self):
        return [(i, j) for i, j in self.pairs() if self.label(i, j) is not INF]

    def max_finite_label(self) -> MatrixEntry:
        finite = [self.label(i, j) for i, j in self.finite_pairs()]
        return max(finite) if finite else INF

    # -- classification ------------------------------------------------

    def is_large(self) -> bool:
        return all(self.label(i, j) >= 3 for i, j in self.pairs())

    def is_extra_large(self) -> bool:
        return all(self.label(i, j) >= 4 for i, j in self.pairs())

    def is_dihedral(self) -> bool:
        return self.n == 2

    def is_free(self) -> bool:
        return self.n == 1 or all(self.label(i, j) is INF for i, j in self.pairs())

    def satisfies_33m(self) -> bool:
        """
        True when large and no triangle carries two labels 3 and a third
        finite label, in any assignment of the three edges.
        """
        if not self.is_large():
            return False
        for i, j, k in combinations(range(1, self.n + 1), 3):
            low, mid, top = sorted((self.label(i, j), self.label(i, k), self.label(j, k)))
            if low == mid == 3 and top is not INF:
                return False
        return True

    def classification(self) -> dict[str, bool]:
        return {
            "large": self.is_large(),
            "extra_large": self.is_extra_large(),
            "satisfies_33m": self.satisfies_33m(),
            "dihedral": self.is_dihedral(),
            "free": self.is_free(),
        }

    # -- relations -----------------------------------------------------

    def relator_sides(self, i: int, j: int) -> tuple[Word, Word]:
        """The two sides alt(i,j,m), alt(j,i,m) of the defining relation."""
        m = self.label(i, j)
        if m is INF:
            raise ValueError(f"no relation between generators {i} and {j}")
        return alt_starting(i, j, m), alt_starting(j, i, m)


# -- presentation files ------------------------------------------------
#
# Grammar (line oriented, '#' starts a comment):
#   n = <int>
#   matrix =
#   <row 0: n entries, integers or 'inf'>
#   ...
#   <row n-1>
# The matrix rows may also follow 'matrix =' on the same line, row-major.
# Any other line before 'matrix =' is an error.


def parse_presentation(text: str) -> CoxeterPresentation:
    entries: list[MatrixEntry] = []
    n: int | None = None
    in_matrix = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, eq, rhs = line.partition("=")
        key = lhs.strip().lower() if eq else None
        if key == "n":
            n = _parse_int(rhs.strip(), line)
        elif key == "matrix" or in_matrix:
            row = rhs if key == "matrix" else line
            entries.extend(_parse_entry(tok, line) for tok in row.split())
            in_matrix = True
        else:
            raise PresentationError(f"unrecognised line before 'matrix =': {line!r}")
    if n is None:
        raise PresentationError("presentation file must declare 'n = <count>'")
    if len(entries) != n * n:
        raise PresentationError(
            f"expected {n * n} matrix entries, found {len(entries)}"
        )
    return CoxeterPresentation(n, tuple(tuple(entries[r * n : r * n + n]) for r in range(n)))


def _parse_entry(tok: str, line: str) -> MatrixEntry:
    return INF if tok.lower() in ("inf", "infinity", "oo") else _parse_int(tok, line)


def _parse_int(tok: str, line: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise PresentationError(f"{tok!r} is not an integer, in line {line!r}") from None


def load_presentation(path) -> CoxeterPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def format_presentation(pres: CoxeterPresentation) -> str:
    lines = [f"n = {pres.n}", "matrix ="]
    for row in pres.m:
        lines.append(" ".join("inf" if x is INF else str(x) for x in row))
    return "\n".join(lines) + "\n"
