import random
from itertools import permutations

import numpy as np
import pytest

from diarscore.assignment import IntMatrix, lexsmallest_assignment


def oracle(cost: list[list[int]], maximize: bool) -> list[int]:
    """First optimal permutation in itertools order, the lexicographically smallest."""
    sign = -1 if maximize else 1
    best, best_total = [], None
    for perm in permutations(range(len(cost))):
        total = sign * sum(row[j] for row, j in zip(cost, perm))
        if best_total is None or total < best_total:
            best, best_total = list(perm), total
    return best


def int_matrix(cost: list[list[int]]) -> IntMatrix:
    matrix = IntMatrix(len(cost), len(cost[0]) if cost else 0)
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            matrix[i, j] = c
    return matrix


@pytest.mark.parametrize("maximize", [False, True])
@pytest.mark.parametrize("values", [(0, 1), (0, 1, 2)])
@pytest.mark.parametrize("n", range(7))
def test_matches_brute_force_on_heavy_ties(n, values, maximize):
    rng = random.Random(f"{n}-{values}-{maximize}")
    for _ in range(40):
        cost = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        matrix = np.array(cost, dtype=np.int64).reshape(n, n)
        expected = oracle(cost, maximize)
        assert lexsmallest_assignment(matrix, maximize=maximize) == expected
        assert lexsmallest_assignment(int_matrix(cost), maximize=maximize) == expected


@pytest.mark.parametrize("maximize", [False, True])
def test_exact_when_scaled_costs_pass_float_precision(maximize):
    # 10**15 * 6**6 is far above 2**53: a float solver would merge these ties
    rng = random.Random(15)
    for _ in range(20):
        cost = [[10**15 + rng.choice((0, 1, 2)) for _ in range(6)] for _ in range(6)]
        matrix = np.array(cost, dtype=np.int64)
        expected = oracle(cost, maximize)
        assert lexsmallest_assignment(matrix, maximize=maximize) == expected
        assert lexsmallest_assignment(int_matrix(cost), maximize=maximize) == expected


@pytest.mark.parametrize("maximize", [False, True])
def test_exact_on_costs_an_int64_matrix_cannot_hold(maximize):
    rng = random.Random(63)
    for _ in range(20):
        cost = [[2**63 + rng.choice((0, 1, 2)) for _ in range(5)] for _ in range(5)]
        with pytest.raises(OverflowError):
            np.array(cost, dtype=np.int64)
        assert lexsmallest_assignment(int_matrix(cost), maximize=maximize) == oracle(cost, maximize)


@pytest.mark.parametrize("k", [0, 3])
def test_int_matrix_may_have_no_rows(k):
    matrix = IntMatrix(0, k)
    assert matrix.shape == (0, k)
    assert matrix.tolist() == []


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square matrix required"):
        lexsmallest_assignment(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match=r"square matrix required, got \(2, 3\)"):
        lexsmallest_assignment(IntMatrix(2, 3))
