"""Deterministic linear-sum assignment with lexicographic tie-breaking.

Scoring output must be reproducible, so among all assignments with optimal
total cost the one whose column sequence (row 0 first) is lexicographically
smallest is returned.  The tie-break is folded into the cost, which makes
the optimum unique, and one Hungarian pass (Kuhn 1955, in the
shortest-augmenting-path form of Jonker & Volgenant 1987) finds it in
O(n^3) steps.  Python ints keep the scaled costs exact at any size.

Cost matrices are small (n is a speaker count), so the scoring code builds
them as ``IntMatrix``: rows of Python ints, with no numpy import and no
int64 ceiling.  The solver itself takes anything with ``.shape`` and
``.tolist()``, so an integer ndarray works as well.

The module also holds ``SpeakerMap``, the pairs and unmatched speakers
that its callers (the DER and cpCER scorers) build from the solver's
columns, so a scorer needs no other scorer's module for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError


class IntMatrix:
    """A zero-filled rows x cols matrix of Python ints.

    Offers the slice of the ndarray interface the scoring code uses:
    ``m[i, j]`` get and set, ``.shape`` and ``.tolist()``.
    """

    __slots__ = ("shape", "_rows")

    def __init__(self, rows: int, cols: int):
        self.shape = (rows, cols)
        self._rows = [[0] * cols for _ in range(rows)]

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self._rows[i][j]

    def __setitem__(self, index: tuple[int, int], value: int) -> None:
        i, j = index
        self._rows[i][j] = value

    def tolist(self) -> list[list[int]]:
        return [list(row) for row in self._rows]


def _tie_broken(cost: list[list[int]], maximize: bool) -> list[list[int]]:
    """Scale costs so that ties in the total resolve lexicographically.

    cost'[i][j] = cost[i][j] * n**n + j * n**(n-1-i).  Over any assignment
    the added terms form the base-n number of its column sequence, which is
    below n**n: it orders assignments of equal total by their columns and
    never reorders assignments of different totals.
    """
    n = len(cost)
    scale = n**n
    sign = -1 if maximize else 1
    return [
        [sign * c * scale + j * n ** (n - 1 - i) for j, c in enumerate(row)]
        for i, row in enumerate(cost)
    ]


def lexsmallest_assignment(cost: IntMatrix, maximize: bool = False) -> list[int]:
    """Return the column assigned to each row of a square cost matrix.

    Among all assignments with optimal total cost, picks the one whose
    column sequence (row 0 first) is lexicographically smallest.
    """
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError(f"square matrix required, got {cost.shape}")
    a = _tie_broken(cost.tolist(), maximize)
    # Row and column potentials; owner[j] is the row matched to column j,
    # with column n a virtual start column for the row being inserted.
    u = [0] * n
    v = [0] * (n + 1)
    owner = [-1] * (n + 1)
    for row in range(n):
        owner[n] = row
        j0 = n
        slack = [None] * n
        prev = [n] * n
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = owner[j0]
            delta = j1 = None
            for j in range(n):
                if used[j]:
                    continue
                reduced = a[i0][j] - u[i0] - v[j]
                if slack[j] is None or reduced < slack[j]:
                    slack[j] = reduced
                    prev[j] = j0
                if delta is None or slack[j] < delta:
                    delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                elif j < n:
                    slack[j] -= delta
            j0 = j1
            if owner[j0] == -1:
                break
        while j0 != n:
            j1 = prev[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(n):
        cols[owner[j]] = j
    return cols


@dataclass(frozen=True)
class SpeakerMap:
    """Injective pairing between reference and hypothesis speaker ids."""

    pairs: tuple[tuple[str, str], ...]
    unmatched_ref: tuple[str, ...]
    unmatched_hyp: tuple[str, ...]

    def __post_init__(self):
        refs = [r for r, _ in self.pairs]
        hyps = [h for _, h in self.pairs]
        if len(set(refs)) != len(refs) or len(set(hyps)) != len(hyps):
            raise ValidationError("speaker map is not injective")


def _with_unmatched(
    pairs: Sequence[tuple[str, str]], refs: list[str], hyps: list[str]
) -> SpeakerMap:
    matched_ref = {r for r, _ in pairs}
    matched_hyp = {h for _, h in pairs}
    return SpeakerMap(
        pairs=tuple(pairs),
        unmatched_ref=tuple(r for r in refs if r not in matched_ref),
        unmatched_hyp=tuple(h for h in hyps if h not in matched_hyp),
    )
