"""Wide blocks through every route by which ``select_topk`` finds a k-th key.

A band of at least ``32·k`` columns guesses each row's k-th key from the
minima of ``16·k`` column groups and checks the guess with its counts. A
row whose guess is high selects among its entries below the guess; a row
whose guess is NaN (fewer than k groups hold a number) is partitioned, as
is every row of a narrower band. The hypothesis suite draws at most 14
columns, so only this suite reaches the guess. Every block is compared
bit for bit with the stable-argsort oracle, ascending and descending, and
the rows built for a route are checked to take it. The ``CHAOS_SEED``
environment variable (set by the CI chaos matrix) reseeds every block.
"""

import os

import numpy as np
import pytest

from repro.neighbors import topk
from repro.neighbors.topk import select_topk
from tests.conftest import assert_same_bits, stable_topk

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Small integers with NaN, ±inf and ±0, so that ties at the k-th key are
#: the common case.
POOL = np.array([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, np.inf, -np.inf, np.nan])


def _pool_row(rng, n_cols, pool=POOL):
    values = rng.choice(pool, size=int(rng.integers(1, pool.size + 1)),
                        replace=False)
    return rng.choice(values, size=n_cols)


def _group_columns(n_cols, k):
    """Columns of the whole groups, group by group (``_guess_kth`` puts
    every ``16·k``-th column from ``g`` in group ``g``)."""
    groups = topk._GROUPS_PER_K * k
    whole = n_cols - n_cols % groups
    return np.arange(whole).reshape(-1, groups).T


def _row(rng, route, n_cols, k):
    """One row of keys built to take ``route`` in a band of at least
    ``32·k`` columns (``"pool"`` rows take whichever route they take)."""
    if route == "pool":
        return _pool_row(rng, n_cols)
    if route == "exact":
        # The k-th key ties in every group, as the distance to the empty
        # rows does on a tile of movielens: the guess is that key.
        row = 2.0 + rng.random(n_cols)
        tie = 2.0
        row[rng.random(n_cols) < 0.3] = tie
        row[_group_columns(n_cols, k)[:, 0]] = tie
        below = rng.choice(n_cols, size=int(rng.integers(0, k)),
                           replace=False)
        row[below] = rng.choice([1.0, -0.0, 0.0, -np.inf], size=below.size)
        return row
    if route == "high":
        # The k smallest keys, and often more keys below the rest, fill the
        # first groups: fewer than k groups hold them, so the guess is a
        # larger group minimum with more than k keys below it.
        row = _pool_row(rng, n_cols, POOL[np.isfinite(POOL)
                                           | (POOL == np.inf)])
        row[rng.random(n_cols) < 0.2] = np.nan
        groups = _group_columns(n_cols, k)
        small = int(rng.integers(k, (k - 1) * groups.shape[1] + 1))
        row[groups.ravel()[:small]] = rng.choice([-np.inf, -3.0, -2.0],
                                                 size=small)
        return row
    # "nan": numbers in fewer than k groups, which may still hold k of them.
    row = np.full(n_cols, np.nan)
    groups = _group_columns(n_cols, k)
    for g in rng.choice(len(groups), size=int(rng.integers(0, k)),
                        replace=False):
        cols = groups[g][rng.random(groups.shape[1]) < 0.7]
        row[cols] = rng.choice(POOL[:-1], size=cols.size)
    return row


def _route(keys, k):
    """The route ``select_topk`` takes for one row of keys."""
    guess = topk._guess_kth(keys[None, :], k)[0]
    if np.isnan(guess):
        return "nan"
    return "exact" if guess == np.sort(keys)[k - 1] else "high"


def _wide_cases(rng, n_cases):
    """``(block, k, ascending, aimed routes)``: 200 to 3,000 columns, k up
    to a 32nd of them, every row built for a random route."""
    for _ in range(n_cases):
        n_cols = int(rng.integers(200, 3001))
        k = int(rng.integers(1, n_cols // (2 * topk._GROUPS_PER_K) + 1))
        routes = [str(r) for r in rng.choice(
            ["pool", "exact", "high", "nan"] if k > 1
            else ["pool", "exact", "nan"], size=int(rng.integers(1, 9)))]
        keys = np.stack([_row(rng, r, n_cols, k) for r in routes])
        ascending = bool(rng.integers(2))
        yield (keys if ascending else -keys), k, ascending, routes


def _narrow_cases(rng, n_cases):
    """``(block, k, ascending)`` with fewer than ``32·k`` columns, k up to
    ``n_cols + 2``."""
    for _ in range(n_cases):
        n_cols = int(rng.integers(200, 3001))
        k = int(rng.integers(n_cols // (2 * topk._GROUPS_PER_K) + 1,
                             n_cols + 3))
        keys = np.stack([_row(rng, "pool", n_cols, k)
                         for _ in range(int(rng.integers(1, 9)))])
        ascending = bool(rng.integers(2))
        yield (keys if ascending else -keys), k, ascending


@pytest.fixture(scope="module")
def wide():
    return list(_wide_cases(np.random.default_rng([CHAOS_SEED, 1]), 60))


def test_wide_blocks_match_stable_argsort(wide):
    for case, (block, k, ascending, _) in enumerate(wide):
        try:
            assert_same_bits(select_topk(block, k, ascending),
                             stable_topk(block, k, ascending))
        except AssertionError as err:
            raise AssertionError(f"wide case {case}, k={k}, "
                                 f"{block.shape}") from err


def test_narrow_blocks_match_stable_argsort():
    rng = np.random.default_rng([CHAOS_SEED, 2])
    for case, (block, k, ascending) in enumerate(_narrow_cases(rng, 30)):
        assert block.shape[1] < 2 * topk._GROUPS_PER_K * min(
            k, block.shape[1])
        try:
            assert_same_bits(select_topk(block, k, ascending),
                             stable_topk(block, k, ascending))
        except AssertionError as err:
            raise AssertionError(f"narrow case {case}, k={k}, "
                                 f"{block.shape}") from err


def test_rows_take_the_route_they_were_built_for(wide):
    taken = {"exact": 0, "high": 0, "nan": 0}
    for block, k, ascending, routes in wide:
        keys = block if ascending else -block
        for row, aimed in zip(keys, routes):
            route = _route(row, k)
            assert aimed in ("pool", route)
            taken[route] += 1
    assert min(taken.values()) >= 10, taken
