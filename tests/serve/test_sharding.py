"""ShardedIndex: placement, bit-identity vs the unsharded estimator,
snapshot round-trips."""

import numpy as np
import pytest

from repro.datasets.degree import degree_balanced_shards
from repro.errors import ShapeMismatchError, SnapshotFormatError
from repro.neighbors import NearestNeighbors
from repro.serve import PLACEMENTS, ShardedIndex
from repro.testing import DEFAULT_SEED, random_csr, seeded_rng, skewed_csr

K = 7


@pytest.fixture
def corpus():
    return skewed_csr(90, 35, seed=DEFAULT_SEED, scale=7, floor=1, cap=30)


@pytest.fixture
def queries():
    return random_csr(seeded_rng(DEFAULT_SEED + 1), 13, 35, 0.3)


def reference(corpus, queries, metric, k=K):
    nn = NearestNeighbors(n_neighbors=k, metric=metric).fit(corpus)
    return nn.kneighbors(queries, k)


class TestPlacement:
    def test_contiguous_covers_all_rows(self, corpus):
        idx = ShardedIndex.build(corpus, n_shards=4, placement="contiguous")
        ids = np.concatenate([s.global_ids for s in idx.shards])
        np.testing.assert_array_equal(np.sort(ids),
                                      np.arange(corpus.n_rows))
        # contiguous bands are balanced to within one row
        sizes = [s.n_rows for s in idx.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_degree_balanced_covers_all_rows(self, corpus):
        idx = ShardedIndex.build(corpus, n_shards=4,
                                 placement="degree_balanced")
        ids = np.concatenate([s.global_ids for s in idx.shards])
        np.testing.assert_array_equal(np.sort(ids),
                                      np.arange(corpus.n_rows))

    def test_degree_balanced_beats_contiguous_on_skew(self, corpus):
        """On a skewed corpus the nnz spread of balanced placement must not
        exceed contiguous banding's."""
        def spread(placement):
            idx = ShardedIndex.build(corpus, n_shards=4,
                                     placement=placement)
            loads = [s.nnz for s in idx.shards]
            return max(loads) - min(loads)

        assert spread("degree_balanced") <= spread("contiguous")

    def test_shard_ids_sorted(self, corpus):
        for placement in PLACEMENTS:
            idx = ShardedIndex.build(corpus, n_shards=3,
                                     placement=placement)
            for s in idx.shards:
                assert np.all(np.diff(s.global_ids) > 0)

    def test_single_shard(self, corpus):
        idx = ShardedIndex.build(corpus, n_shards=1)
        assert idx.n_shards == 1
        assert idx.shards[0].n_rows == corpus.n_rows

    def test_more_shards_than_rows_rejected(self, corpus):
        with pytest.raises(ValueError, match="shards"):
            ShardedIndex.build(corpus, n_shards=corpus.n_rows + 1)

    def test_unknown_placement_rejected(self, corpus):
        with pytest.raises(ValueError, match="placement"):
            ShardedIndex.build(corpus, placement="round_robin")

    def test_nonpositive_shards_rejected(self, corpus):
        with pytest.raises(ValueError):
            ShardedIndex.build(corpus, n_shards=0)


class TestDegreeBalancedShards:
    def test_partition_properties(self):
        m = skewed_csr(50, 20, seed=3, scale=5, floor=1, cap=18)
        groups = degree_balanced_shards(m, 4)
        assert len(groups) == 4
        all_ids = np.concatenate(groups)
        np.testing.assert_array_equal(np.sort(all_ids), np.arange(50))
        assert all(len(g) > 0 for g in groups)

    def test_invalid_counts(self):
        m = random_csr(seeded_rng(0), 5, 4, 0.5)
        with pytest.raises(ValueError):
            degree_balanced_shards(m, 0)
        with pytest.raises(ValueError):
            degree_balanced_shards(m, 6)


class TestBitIdentity:
    """The acceptance criterion: sharded == unsharded, values AND indices."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "manhattan"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("placement", list(PLACEMENTS))
    def test_kneighbors_identical(self, corpus, queries, metric, n_shards,
                                  placement):
        want_d, want_i = reference(corpus, queries, metric)
        idx = ShardedIndex.build(corpus, metric=metric, n_shards=n_shards,
                                 placement=placement)
        got_d, got_i = idx.kneighbors(queries, K)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_i, want_i)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_threaded_fanout_identical(self, corpus, queries, n_workers):
        want_d, want_i = reference(corpus, queries, "cosine")
        idx = ShardedIndex.build(corpus, metric="cosine", n_shards=4,
                                 placement="degree_balanced")
        got_d, got_i = idx.kneighbors(queries, K, n_workers=n_workers)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_i, want_i)

    def test_tie_break_across_shard_boundary(self):
        """Duplicate corpus rows straddling shard boundaries must resolve
        ties by global id, exactly like the unsharded selection."""
        rng = seeded_rng(11)
        base = random_csr(rng, 6, 12, 0.5)
        # 24 rows = the same 6 rows repeated 4x; with 4 contiguous shards
        # every duplicate lands in a different shard.
        from repro.sparse.ops import vstack
        corpus = vstack([base, base, base, base])
        queries = random_csr(seeded_rng(12), 5, 12, 0.4)
        want_d, want_i = reference(corpus, queries, "euclidean", k=9)
        for placement in PLACEMENTS:
            idx = ShardedIndex.build(corpus, metric="euclidean",
                                     n_shards=4, placement=placement)
            got_d, got_i = idx.kneighbors(queries, 9)
            np.testing.assert_array_equal(got_d, want_d)
            np.testing.assert_array_equal(got_i, want_i)

    def test_k_clamped_to_corpus(self, corpus, queries):
        idx = ShardedIndex.build(corpus, n_shards=3)
        d, i = idx.kneighbors(queries, corpus.n_rows + 50)
        assert d.shape == (queries.n_rows, corpus.n_rows)

    def test_query_column_mismatch_rejected(self, corpus):
        idx = ShardedIndex.build(corpus, n_shards=2)
        bad = random_csr(seeded_rng(5), 4, corpus.n_cols + 3, 0.3)
        with pytest.raises(ShapeMismatchError):
            idx.kneighbors(bad, 3)


class TestPerShardTuning:
    """engine="auto" tunes each shard against its own degree distribution."""

    def test_auto_engine_stays_bit_identical(self, corpus, queries):
        want_d, want_i = reference(corpus, queries, "manhattan")
        idx = ShardedIndex.build(corpus, metric="manhattan", n_shards=3,
                                 placement="degree_balanced", engine="auto")
        got_d, got_i = idx.kneighbors(queries, K)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_i, want_i)

    def test_shard_tunings_expose_per_shard_choices(self, corpus, queries):
        idx = ShardedIndex.build(corpus, metric="manhattan", n_shards=3,
                                 placement="contiguous", engine="auto")
        tunings = idx.shard_tunings(queries)
        assert len(tunings) == idx.n_shards
        for tuning in tunings:
            assert tuning is not None
            assert tuning.engine in ("hybrid_coo", "merge_path")
            assert tuning.candidates
            # the probe describes this shard's slice, not the whole corpus
        assert ([t.probe_b.n_rows for t in tunings]
                == [s.n_rows for s in idx.shards])
        # decisions are deterministic across calls
        again = idx.shard_tunings(queries)
        assert ([(t.engine, t.row_cache) for t in tunings]
                == [(t.engine, t.row_cache) for t in again])

    def test_fixed_engine_reports_no_tuning(self, corpus, queries):
        idx = ShardedIndex.build(corpus, metric="manhattan", n_shards=2,
                                 engine="hybrid_coo")
        assert idx.shard_tunings(queries) == [None, None]


class TestSnapshot:
    def test_round_trip(self, corpus, queries, tmp_path):
        idx = ShardedIndex.build(corpus, metric="cosine", n_shards=3,
                                 placement="degree_balanced",
                                 devices="ampere", batch_rows=512)
        want_d, want_i = idx.kneighbors(queries, K)
        path = tmp_path / "index.npz"
        idx.save(path)
        loaded = ShardedIndex.load(path)
        assert loaded.n_shards == 3
        assert loaded.placement == "degree_balanced"
        assert loaded.metric == idx.metric
        assert loaded.batch_rows == 512
        assert [s.device.name for s in loaded.shards] == [
            "ampere-a100"] * 3
        for s_old, s_new in zip(idx.shards, loaded.shards):
            np.testing.assert_array_equal(s_old.global_ids,
                                          s_new.global_ids)
        got_d, got_i = loaded.kneighbors(queries, K)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_i, want_i)

    def test_round_trip_preserves_norms(self, corpus, tmp_path):
        idx = ShardedIndex.build(corpus, metric="euclidean", n_shards=2)
        path = tmp_path / "index.npz"
        idx.save(path)
        loaded = ShardedIndex.load(path)
        for s_old, s_new in zip(idx.shards, loaded.shards):
            assert s_old.operand.norms is not None
            for kind, values in s_old.operand.norms.items():
                np.testing.assert_array_equal(values,
                                              s_new.operand.norms[kind])

    def test_metric_params_survive(self, corpus, queries, tmp_path):
        idx = ShardedIndex.build(corpus, metric="minkowski",
                                 metric_params={"p": 3.0}, n_shards=2)
        want = idx.kneighbors(queries, 4)
        path = tmp_path / "mink.npz"
        idx.save(path)
        got = ShardedIndex.load(path).kneighbors(queries, 4)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(SnapshotFormatError):
            ShardedIndex.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            ShardedIndex.load(tmp_path / "absent.npz")

    def test_wrong_version_rejected(self, corpus, tmp_path):
        import json

        idx = ShardedIndex.build(corpus, n_shards=2)
        path = tmp_path / "index.npz"
        idx.save(path)
        with np.load(path) as archive:
            arrays = {n: archive[n] for n in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(SnapshotFormatError, match="version"):
            ShardedIndex.load(path)

    def test_missing_arrays_rejected(self, corpus, tmp_path):
        idx = ShardedIndex.build(corpus, n_shards=2)
        path = tmp_path / "index.npz"
        idx.save(path)
        with np.load(path) as archive:
            arrays = {n: archive[n] for n in archive.files}
        del arrays["shard_1_ids"]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(SnapshotFormatError, match="shard_1_ids"):
            ShardedIndex.load(path)

    @staticmethod
    def _rewrite(path, mutate_arrays=None, mutate_meta=None):
        """Round-trip a saved snapshot through a corruption hook."""
        import json

        with np.load(path) as archive:
            arrays = {n: archive[n] for n in archive.files}
        if mutate_meta is not None:
            meta = json.loads(bytes(arrays["meta"]).decode())
            mutate_meta(meta)
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        if mutate_arrays is not None:
            mutate_arrays(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @pytest.fixture
    def saved(self, corpus, tmp_path):
        idx = ShardedIndex.build(corpus, n_shards=2)
        path = tmp_path / "index.npz"
        idx.save(path)
        return path

    def test_truncated_file_rejected(self, saved):
        payload = saved.read_bytes()
        saved.write_bytes(payload[: len(payload) // 3])
        with pytest.raises(SnapshotFormatError):
            ShardedIndex.load(saved)

    def test_unreadable_meta_json_rejected(self, saved):
        def corrupt(arrays):
            arrays["meta"] = np.frombuffer(b"{not json", dtype=np.uint8)

        self._rewrite(saved, mutate_arrays=corrupt)
        with pytest.raises(SnapshotFormatError, match="meta"):
            ShardedIndex.load(saved)

    def test_missing_meta_field_named(self, saved):
        self._rewrite(saved, mutate_meta=lambda m: m.pop("placement"))
        with pytest.raises(SnapshotFormatError, match="placement"):
            ShardedIndex.load(saved)

    def test_wrong_type_field_named(self, saved):
        def mutate(meta):
            meta["batch_rows"] = "lots"

        self._rewrite(saved, mutate_meta=mutate)
        with pytest.raises(SnapshotFormatError, match="batch_rows"):
            ShardedIndex.load(saved)

    def test_unknown_metric_named(self, saved):
        def mutate(meta):
            meta["metric"] = "nonexistent_metric"

        self._rewrite(saved, mutate_meta=mutate)
        with pytest.raises(SnapshotFormatError, match="metric"):
            ShardedIndex.load(saved)

    def test_unknown_device_named(self, saved):
        def mutate(meta):
            meta["devices"] = ["no-such-gpu"] * meta["n_shards"]

        self._rewrite(saved, mutate_meta=mutate)
        with pytest.raises(SnapshotFormatError, match="devices"):
            ShardedIndex.load(saved)

    @pytest.mark.parametrize("field, value", [("placement", "random"),
                                              ("n_replicas", 0)])
    def test_out_of_range_field_named(self, saved, field, value):
        self._rewrite(saved, mutate_meta=lambda m: m.update({field: value}))
        with pytest.raises(SnapshotFormatError, match=field):
            ShardedIndex.load(saved)

    def test_snapshot_without_replicas_loads_one(self, saved):
        """Snapshots written before replication carry no n_replicas."""
        self._rewrite(saved, mutate_meta=lambda m: m.pop("n_replicas"))
        assert ShardedIndex.load(saved).n_replicas == 1

    def test_missing_norm_array_named(self, saved):
        def corrupt(arrays):
            victim = next(n for n in arrays if n.startswith("norm_"))
            del arrays[victim]

        self._rewrite(saved, mutate_arrays=corrupt)
        with pytest.raises(SnapshotFormatError, match="norm_"):
            ShardedIndex.load(saved)

    def test_indptr_length_mismatch_named(self, saved):
        def corrupt(arrays):
            arrays["indptr"] = arrays["indptr"][:-1]

        self._rewrite(saved, mutate_arrays=corrupt)
        with pytest.raises(SnapshotFormatError, match="indptr"):
            ShardedIndex.load(saved)

    def test_id_partition_violation_named(self, saved):
        def corrupt(arrays):
            ids = arrays["shard_0_ids"].copy()
            ids[0] = ids[1]                  # duplicate breaks the partition
            arrays["shard_0_ids"] = ids

        self._rewrite(saved, mutate_arrays=corrupt)
        with pytest.raises(SnapshotFormatError, match="ids"):
            ShardedIndex.load(saved)

    def test_out_of_range_ids_named(self, saved):
        def corrupt(arrays):
            ids = arrays["shard_1_ids"].copy()
            ids[-1] = 10 ** 9
            arrays["shard_1_ids"] = ids

        self._rewrite(saved, mutate_arrays=corrupt)
        with pytest.raises(SnapshotFormatError, match="shard_1_ids"):
            ShardedIndex.load(saved)
