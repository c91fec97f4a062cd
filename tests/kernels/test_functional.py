"""Tests for the shared semiring block math (intersection/union)."""

import numpy as np
import pytest

from repro.core.distances import available_distances, make_distance
from repro.core.monoid import MAX, MIN, TIMES, Monoid
from repro.core.semiring import Semiring, dot_product_semiring, namm_semiring
from repro.kernels import functional
from repro.kernels.functional import (
    co_occurrence_counts,
    gather_intersections,
    semiring_block,
)
from repro.sparse.csr import CSRMatrix
from repro.workspace import MAX_CELLS
from tests.conftest import dense_block, random_csr

#: ⊕ = max over ⊗ = ×, which annihilates on max's identity 0
MAX_TIMES = Semiring("max-times", MAX, TIMES)
#: ⊕ = min over ⊗ = +, made annihilating on min's identity +inf
MIN_PLUS = Semiring("min-plus", MIN, Monoid(
    "plus-inf", np.add, identity=0.0, commutative=True,
    annihilator=float("inf")))


# ----------------------------------------------------------------------
# Bitwise oracle: the chunked gather + full-output ``bincount`` that the
# row-blocked path replaced. Its chunk boundaries fix the summation order
# the blocked path must reproduce bit for bit.
# ----------------------------------------------------------------------
def _chunked_gather(a, b, chunk_elements):
    """Yield ``(i, j, a_val, b_val)`` chunks of a's nonzeros, each ending
    at the first nonzero that brings it to ``chunk_elements`` or more."""
    bt = b.copy().transpose()
    a_rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_degrees())
    hit_lens = bt.row_degrees()[a.indices]
    cum = np.cumsum(hit_lens)
    start = 0
    while start < a.nnz:
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + chunk_elements)) + 1
        stop = min(max(stop, start + 1), a.nnz)
        lens = hit_lens[start:stop]
        starts = bt.indptr[a.indices[start:stop]]
        gather = (np.repeat(starts - (np.cumsum(lens) - lens), lens)
                  + np.arange(int(lens.sum()), dtype=np.int64))
        if gather.size:
            yield (np.repeat(a_rows[start:stop], lens), bt.indices[gather],
                   np.repeat(a.data[start:stop], lens), bt.data[gather])
        start = stop


def _oracle_intersection(a, b, semiring, op, chunk_elements):
    m, n = a.n_rows, b.n_rows
    name = semiring.reduce.name
    flat = np.full(m * n, semiring.reduce.identity, dtype=np.float64)
    for i, j, av, bv in _chunked_gather(a, b, chunk_elements):
        prods = np.asarray(op(av, bv), dtype=np.float64)
        if name == "plus":
            flat += np.bincount(i * n + j, weights=prods, minlength=m * n)
        else:
            {"max": np.maximum, "min": np.minimum}[name].at(
                flat, i * n + j, prods)
    return flat.reshape(m, n)


def _oracle_counts(a, b, chunk_elements):
    m, n = a.n_rows, b.n_rows
    flat = np.zeros(m * n, dtype=np.int64)
    for i, j, _, _ in _chunked_gather(a, b, chunk_elements):
        flat += np.bincount(i * n + j, minlength=m * n)
    return flat.reshape(m, n)


def _oracle_union_sum(a, b, semiring, chunk_elements):
    op = semiring.product

    def corrected(x, y):
        return (np.asarray(op(x, y), dtype=np.float64)
                - np.asarray(op(x, np.zeros_like(x)), dtype=np.float64)
                - np.asarray(op(np.zeros_like(y), y), dtype=np.float64))

    inter = _oracle_intersection(a, b, semiring, corrected, chunk_elements)
    ra = functional._row_side_sums(a, lambda v: op(v, np.zeros_like(v)))
    rb = functional._row_side_sums(b, lambda v: op(np.zeros_like(v), v))
    return inter + ra[:, None] + rb[None, :]


_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                      -2.5e-310, 1e300])


def _adversarial_csr(rng, m, k):
    """Random CSR with empty rows, explicit zeros, NaN, ±inf, -0.0 and
    denormals among ordinary values of mixed sign and magnitude."""
    mask = rng.random((m, k)) < rng.uniform(0.2, 0.9)
    mask[rng.random(m) < 0.2] = False
    rows, cols = np.nonzero(mask)
    vals = rng.normal(size=rows.size) * 10.0 ** rng.integers(-3, 4,
                                                             rows.size)
    special = rng.random(rows.size) < 0.15
    vals[special] = rng.choice(_SPECIALS, int(special.sum()))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return CSRMatrix(indptr, cols, vals, (m, k))


def _assert_same_bits(got, want):
    """Equal bits off NaN and NaN in the same cells. NaN sign bits are not
    compared: numpy's SIMD add does not fix which NaN operand wins."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64),
                                  want[~nan].view(np.int64))


def _force_sizes(monkeypatch, chunk: int, block: int) -> None:
    monkeypatch.setattr(functional, "_CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(functional, "_BLOCK_ELEMENTS", block)


class TestGatherIntersections:
    def test_enumerates_all_co_occurrences(self, rng):
        a = random_csr(rng, 9, 12, 0.4)
        b = random_csr(rng, 7, 12, 0.4)
        da, db = a.to_dense(), b.to_dense()
        total = 0
        for r0, r1, cells, a_vals, b_vals in gather_intersections(a, b):
            i_rows, j_rows = np.divmod(cells, b.n_rows)
            i_rows += r0
            assert np.all(i_rows < r1)
            # every yielded element must be a real co-occurrence
            for i, j, av, bv in zip(i_rows, j_rows, a_vals, b_vals):
                assert av != 0 and bv != 0
                assert av in da[i] and bv in db[j]
            total += cells.size
        expected = int(((da != 0).astype(int) @ (db != 0).astype(int).T).sum())
        assert total == expected

    def test_chunking_preserves_totals(self, rng, monkeypatch):
        a = random_csr(rng, 20, 15, 0.5)
        b = random_csr(rng, 18, 15, 0.5)
        big = [p[2].size for p in gather_intersections(a, b)]
        _force_sizes(monkeypatch, chunk=7, block=5)
        small = [p[2].size for p in gather_intersections(a, b)]
        assert len(big) == 1 and len(small) > len(big)
        assert sum(big) == sum(small)

    def test_blocks_are_bounded_and_split_rows_only_at_chunks(
            self, rng, monkeypatch):
        a = random_csr(rng, 20, 15, 0.5)
        b = random_csr(rng, 18, 15, 0.5)
        _force_sizes(monkeypatch, chunk=40, block=12)
        sizes = []
        for r0, r1, cells, _, _ in gather_intersections(a, b):
            assert cells.size <= 12 or r1 - r0 == 1
            assert 0 <= cells.min() and cells.max() < (r1 - r0) * b.n_rows
            sizes.append(cells.size)
        # Every block ends at a row end or a chunk end, counted in
        # co-occurrences from the start of the stream.
        row_ends = np.cumsum(co_occurrence_counts(a, b).sum(axis=1))
        chunk_ends = np.cumsum([c[0].size
                                for c in _chunked_gather(a, b, 40)])
        assert set(np.cumsum(sizes)) <= set(row_ends) | set(chunk_ends)
        assert len(sizes) > len(chunk_ends)

    def test_empty_inputs(self, rng):
        a = CSRMatrix.empty((3, 5))
        b = random_csr(rng, 2, 5)
        assert list(gather_intersections(a, b)) == []


class TestIntersectionBlock:
    def test_dot_product_matches_dense(self, rng):
        a = random_csr(rng, 11, 9)
        b = random_csr(rng, 8, 9)
        got = dense_block(a, b, dot_product_semiring())
        np.testing.assert_allclose(got, a.to_dense() @ b.to_dense().T,
                                   atol=1e-12)

    def test_empty_rows_give_identity(self, rng):
        a = CSRMatrix.empty((3, 6))
        b = random_csr(rng, 4, 6)
        got = dense_block(a, b, dot_product_semiring())
        np.testing.assert_allclose(got, 0.0)

    def test_max_reduce(self, rng):
        a = random_csr(rng, 6, 8, positive=True)
        b = random_csr(rng, 5, 8, positive=True)
        # intersection under max: max over shared cols of x*y
        got = dense_block(a, b, MAX_TIMES)
        da, db = a.to_dense(), b.to_dense()
        prod = da[:, None, :] * db[None, :, :]
        prod[(da[:, None, :] == 0) | (db[None, :, :] == 0)] = 0.0
        np.testing.assert_allclose(got, prod.max(axis=-1), atol=1e-12)


class TestUnionBlock:
    def test_manhattan_sum(self, rng):
        a = random_csr(rng, 10, 13)
        b = random_csr(rng, 9, 13)
        sr = namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")
        got = dense_block(a, b, sr)
        da, db = a.to_dense(), b.to_dense()
        want = np.abs(da[:, None, :] - db[None, :, :]).sum(axis=-1)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_chebyshev_max(self, rng):
        a = random_csr(rng, 10, 13)
        b = random_csr(rng, 9, 13)
        sr = namm_semiring(lambda x, y: np.abs(x - y), reduce=MAX,
                           name="chebyshev")
        got = dense_block(a, b, sr)
        da, db = a.to_dense(), b.to_dense()
        want = np.abs(da[:, None, :] - db[None, :, :]).max(axis=-1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_side(self, rng):
        a = CSRMatrix.empty((4, 6))
        b = random_csr(rng, 3, 6)
        sr = namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")
        got = dense_block(a, b, sr)
        want = np.tile(np.abs(b.to_dense()).sum(axis=1), (4, 1))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dispatch(self, rng):
        a = random_csr(rng, 5, 7)
        b = random_csr(rng, 4, 7)
        dot = dense_block(a, b, dot_product_semiring())
        np.testing.assert_allclose(dot, a.to_dense() @ b.to_dense().T,
                                   atol=1e-12)
        manhattan = dense_block(
            a, b, namm_semiring(lambda x, y: np.abs(x - y), name="m"))
        want = np.abs(a.to_dense()[:, None] - b.to_dense()[None]).sum(-1)
        np.testing.assert_allclose(manhattan, want, atol=1e-9)


class TestCoOccurrence:
    def test_counts_match_dense(self, rng):
        a = random_csr(rng, 7, 9)
        b = random_csr(rng, 6, 9)
        counts = co_occurrence_counts(a, b)
        want = (a.to_dense() != 0).astype(int) @ (b.to_dense() != 0).astype(int).T
        np.testing.assert_array_equal(counts, want)

    def test_zero_when_disjoint(self):
        a = CSRMatrix.from_dense([[1.0, 0.0]])
        b = CSRMatrix.from_dense([[0.0, 1.0]])
        assert co_occurrence_counts(a, b)[0, 0] == 0


class TestBlockedMatchesChunkedOracle:
    """The row-blocked gather reproduces the chunked oracle bit for bit,
    under chunk and block sizes small enough that chunks split rows and a
    block can hold a single row."""

    SEEDS = range(60)

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng([20, seed])
        k = int(rng.integers(1, 9))
        a = _adversarial_csr(rng, int(rng.integers(1, 12)), k)
        b = _adversarial_csr(rng, int(rng.integers(1, 12)), k)
        return a, b, int(rng.integers(1, 40)), int(rng.integers(1, 30))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plus_max_min(self, seed, monkeypatch):
        a, b, chunk, block = self._case(seed)
        _force_sizes(monkeypatch, chunk, block)
        for sr in (dot_product_semiring(), MAX_TIMES, MIN_PLUS):
            _assert_same_bits(
                dense_block(a, b, sr),
                _oracle_intersection(a, b, sr, sr.product, chunk))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", SEEDS)
    def test_namm_corrected_sum(self, seed, monkeypatch):
        a, b, chunk, block = self._case(seed)
        _force_sizes(monkeypatch, chunk, block)
        sr = namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")
        _assert_same_bits(dense_block(a, b, sr),
                          _oracle_union_sum(a, b, sr, chunk))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_co_occurrence_counts(self, seed, monkeypatch):
        a, b, chunk, block = self._case(seed)
        _force_sizes(monkeypatch, chunk, block)
        np.testing.assert_array_equal(co_occurrence_counts(a, b),
                                      _oracle_counts(a, b, chunk))

    def test_cases_split_rows_and_hold_single_rows(self, monkeypatch):
        """The cases above do split rows at chunk boundaries and do hold
        a row alone in a block because it exceeds the block size."""
        split = single = 0
        for seed in self.SEEDS:
            a, b, chunk, block = self._case(seed)
            _force_sizes(monkeypatch, chunk, block)
            rows = [set(np.unique(c[0]))
                    for c in _chunked_gather(a, b, chunk)]
            split += sum(bool(p & q) for p, q in zip(rows, rows[1:]))
            single += sum(r1 - r0 == 1 and cells.size > block
                          for r0, r1, cells, _, _
                          in gather_intersections(a, b))
        assert split > 0 and single > 0


class TestBandsMatchWholeBlock:
    """The row bands ``semiring_block`` hands a sink concatenate to the
    whole block, handed over as one band, bit for bit, under band, block
    and chunk sizes small enough that their boundaries interleave."""

    SEEDS = TestBlockedMatchesChunkedOracle.SEEDS

    @staticmethod
    def _case(seed):
        a, b, chunk, block = TestBlockedMatchesChunkedOracle._case(seed)
        rng = np.random.default_rng([21, seed])
        return a, b, chunk, block, int(rng.integers(1, 4 * b.n_rows + 1))

    @staticmethod
    def _bands(a, b, sr):
        bands = []
        semiring_block(a, b, sr, sink=lambda r0, r1, rows: bands.append(
            (r0, r1, rows.copy())))
        return bands

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("metric", available_distances())
    def test_concatenated_bands_equal_block(self, metric, monkeypatch):
        sr = make_distance(metric).semiring
        one_band = not sr.is_annihilating and sr.reduce.name != "plus"
        for seed in self.SEEDS:
            a, b, chunk, block, band_cells = self._case(seed)
            _force_sizes(monkeypatch, chunk, block)
            monkeypatch.setattr(functional, "_BAND_CELLS", MAX_CELLS)
            [(_, _, whole)] = self._bands(a, b, sr)
            monkeypatch.setattr(functional, "_BAND_CELLS", band_cells)
            bands = self._bands(a, b, sr)
            starts = [r0 for r0, _, _ in bands]
            assert starts == [0] + [r1 for _, r1, _ in bands[:-1]]
            assert bands[-1][1] == a.n_rows
            band_rows = max(1, band_cells // b.n_rows)
            for r0, r1, rows in bands:
                assert rows.shape == (r1 - r0, b.n_rows)
                assert one_band or r1 - r0 <= band_rows
            _assert_same_bits(np.concatenate([r for _, _, r in bands]),
                              whole)

    def test_cases_cover_the_boundaries(self, monkeypatch):
        """Some band holds a row that a chunk boundary splits beside other
        rows, some row is wider than the band budget, and some band holds
        an empty row."""
        split_in_band = wide = empty = 0
        for seed in self.SEEDS:
            a, b, chunk, block, band_cells = self._case(seed)
            band_rows = max(1, band_cells // b.n_rows)
            rows = [set(np.unique(c[0]))
                    for c in _chunked_gather(a, b, chunk)]
            for r in set().union(*[p & q for p, q in zip(rows, rows[1:])]):
                start = r - r % band_rows
                split_in_band += min(start + band_rows, a.n_rows) - start > 1
            wide += b.n_rows > band_cells
            empty += bool(np.any(a.row_degrees() == 0))
        assert split_in_band > 0 and wide > 0 and empty > 0

    def test_one_band_without_a_budget_to_cut(self, rng):
        a = random_csr(rng, 5, 7)
        b = random_csr(rng, 4, 7)
        bands = self._bands(a, b, dot_product_semiring())
        assert [(r0, r1) for r0, r1, _ in bands] == [(0, 5)]

    def test_zero_row_operand_is_one_empty_band(self, rng):
        a = CSRMatrix.empty((0, 7))
        b = random_csr(rng, 4, 7)
        bands = self._bands(a, b, dot_product_semiring())
        assert [(r0, r1, rows.shape) for r0, r1, rows in bands] == [
            (0, 0, (0, 4))]
