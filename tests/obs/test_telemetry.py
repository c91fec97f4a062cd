"""Telemetry spine: ids, schema, sampling, and the serve/dist/mutable
emission hooks (DESIGN.md §16)."""

import pytest

from repro.obs.telemetry import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    SamplingPolicy,
    Telemetry,
    derive_span_id,
    deterministic_trace_id,
    trace_id_for_request,
    validate_event,
)


class TestIds:
    def test_trace_ids_are_deterministic_and_distinct(self):
        assert (deterministic_trace_id("a", 1)
                == deterministic_trace_id("a", 1))
        assert (deterministic_trace_id("a", 1)
                != deterministic_trace_id("a", 2))
        # joined with a separator, so part boundaries matter
        assert (deterministic_trace_id("ab", "c")
                != deterministic_trace_id("a", "bc"))

    def test_id_shapes(self):
        trace = trace_id_for_request(7)
        assert len(trace) == 16
        assert set(trace) <= set("0123456789abcdef")
        span = derive_span_id(trace, "request", 0)
        assert len(span) == 8
        assert derive_span_id(trace, "request", 1) != span

    def test_request_ids_map_one_to_one(self):
        ids = {trace_id_for_request(i) for i in range(1000)}
        assert len(ids) == 1000


class TestSchema:
    def _record(self, **overrides):
        record = {"schema": SCHEMA_VERSION, "kind": "request",
                  "trace_id": "0" * 16, "span_id": "0" * 8,
                  "ts_ms": 1.5, "attrs": {}}
        record.update(overrides)
        return record

    def test_valid_record_passes(self):
        validate_event(self._record())

    @pytest.mark.parametrize("field", EVENT_SCHEMA["required"])
    def test_missing_required_field_rejected(self, field):
        record = self._record()
        del record[field]
        with pytest.raises(ValueError, match=field):
            validate_event(record)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_event(self._record(surprise=1))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            validate_event(self._record(schema=SCHEMA_VERSION + 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            validate_event(self._record(kind="mystery"))

    @pytest.mark.parametrize("trace_id", ["", "0" * 15, "0" * 17,
                                          "Z" * 16, "0" * 8])
    def test_bad_trace_id_rejected(self, trace_id):
        with pytest.raises(ValueError, match="trace_id"):
            validate_event(self._record(trace_id=trace_id))

    def test_bool_ts_rejected(self):
        with pytest.raises(ValueError, match="ts_ms"):
            validate_event(self._record(ts_ms=True))

    def test_every_kind_is_schema_legal(self):
        for kind in EVENT_KINDS:
            validate_event(self._record(kind=kind))


class TestTelemetry:
    def test_emit_produces_canonical_validated_records(self):
        telemetry = Telemetry()
        trace = deterministic_trace_id("t", 1)
        record = telemetry.emit("request", trace_id=trace, ts_ms=4.0,
                                latency_ms=1.25)
        validate_event(record)
        assert record["attrs"] == {"latency_ms": 1.25}
        assert telemetry.events == [record]
        assert telemetry.counts_by_kind() == {"request": 1}

    def test_span_ids_are_per_trace_kind_ordinals(self):
        telemetry = Telemetry()
        trace = deterministic_trace_id("t", 1)
        first = telemetry.emit("tile", trace_id=trace)
        second = telemetry.emit("tile", trace_id=trace)
        other = telemetry.emit("request", trace_id=trace)
        assert first["span_id"] == derive_span_id(trace, "tile", 0)
        assert second["span_id"] == derive_span_id(trace, "tile", 1)
        assert other["span_id"] == derive_span_id(trace, "request", 0)
        # an explicit span id is stored, so it still takes an ordinal ...
        explicit = telemetry.emit("tile", trace_id=trace, span_id="0badcafe")
        assert explicit["span_id"] == "0badcafe"
        # ... while an event that fails validation is not stored and does not
        with pytest.raises(ValueError):
            telemetry.emit("tile", trace_id=trace, span_id="not-hex!")
        fourth = telemetry.emit("tile", trace_id=trace)
        assert fourth["span_id"] == derive_span_id(trace, "tile", 3)

    def test_invalid_kind_raises_and_records_nothing(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            telemetry.emit("mystery",
                           trace_id=deterministic_trace_id("t", 1))
        assert telemetry.events == []

    def test_events_for_includes_batch_scoped_members(self):
        telemetry = Telemetry()
        member = deterministic_trace_id("member", 1)
        batch = deterministic_trace_id("batch", 1)
        telemetry.emit("request", trace_id=member)
        telemetry.emit("tile", trace_id=batch,
                       member_trace_ids=[member])
        telemetry.emit("tile", trace_id=batch, member_trace_ids=["zz"])
        chain = telemetry.events_for(member)
        assert [r["kind"] for r in chain] == ["request", "tile"]

    def test_events_count_to_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        telemetry = Telemetry(metrics=metrics)
        trace = deterministic_trace_id("t", 1)
        telemetry.emit("shed", trace_id=trace)
        telemetry.emit("shed", trace_id=trace)
        assert metrics.counter(
            "telemetry_events_total").value(kind="shed") == 2


class TestSampling:
    def test_head_keep_is_seeded_and_order_independent(self):
        policy = SamplingPolicy(head_rate=0.5, seed=3)
        ids = [deterministic_trace_id("t", i) for i in range(200)]
        first = [policy.head_keep(t) for t in ids]
        second = [policy.head_keep(t) for t in reversed(ids)]
        assert first == list(reversed(second))
        kept = sum(first)
        assert 60 <= kept <= 140  # ~0.5 of 200, seeded hash
        assert all(SamplingPolicy(head_rate=1.0).head_keep(t)
                   for t in ids)
        assert not any(SamplingPolicy(head_rate=0.0).head_keep(t)
                       for t in ids)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SamplingPolicy(head_rate=1.5)

    def _emit_request(self, telemetry, i, latency, **attrs):
        telemetry.emit("request",
                       trace_id=trace_id_for_request(i),
                       ts_ms=float(i), latency_ms=latency, **attrs)

    def test_tail_rules_always_retain(self):
        telemetry = Telemetry(policy=SamplingPolicy(head_rate=0.0))
        for i in range(20):
            self._emit_request(telemetry, i, 1.0)
        self._emit_request(telemetry, 20, 1.0, deadline_missed=True)
        self._emit_request(telemetry, 21, 1.0, degraded=True)
        self._emit_request(telemetry, 22, 1.0, n_faults=2)
        self._emit_request(telemetry, 23, 50.0)  # the slow tail
        report = telemetry.finalize()
        by_id = {d.trace_id: d for d in report.decisions}
        assert by_id[trace_id_for_request(20)].reasons == (
            "tail:deadline_missed",)
        assert by_id[trace_id_for_request(21)].reasons == (
            "tail:degraded",)
        assert by_id[trace_id_for_request(22)].reasons == (
            "tail:faulted",)
        assert "tail:slow_p99" in by_id[trace_id_for_request(23)].reasons
        assert by_id[trace_id_for_request(0)].kept is False
        assert report.p99_threshold_ms == 50.0

    def test_fault_events_mark_the_trace_faulted(self):
        telemetry = Telemetry(policy=SamplingPolicy(head_rate=0.0))
        trace = deterministic_trace_id("t", 1)
        telemetry.emit("fault", trace_id=trace, action="retried")
        decision = telemetry.finalize().decision_for(trace)
        assert decision.kept and decision.reasons == ("tail:faulted",)

    def test_finalize_is_cached_until_new_events(self):
        telemetry = Telemetry()
        telemetry.emit("shed", trace_id=deterministic_trace_id("t", 1))
        first = telemetry.finalize()
        assert telemetry.finalize() is first
        telemetry.emit("shed", trace_id=deterministic_trace_id("t", 2))
        assert telemetry.finalize() is not first

    def test_sampled_events(self):
        telemetry = Telemetry(policy=SamplingPolicy(head_rate=0.0))
        kept_trace = trace_id_for_request(1)
        dropped_trace = trace_id_for_request(2)
        batch = deterministic_trace_id("batch", 1)
        self._emit_request(telemetry, 1, 1.0, deadline_missed=True)
        self._emit_request(telemetry, 2, 0.5)
        telemetry.emit("tile", trace_id=batch,
                       member_trace_ids=[kept_trace, dropped_trace])
        sampled = telemetry.sampled_events()
        assert {r["trace_id"] for r in sampled} == {kept_trace, batch}

    def test_sampling_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        telemetry = Telemetry(policy=SamplingPolicy(head_rate=0.0),
                              metrics=metrics)
        self._emit_request(telemetry, 1, 1.0, deadline_missed=True)
        self._emit_request(telemetry, 2, 0.5)
        telemetry.finalize()
        gauge = metrics.gauge("telemetry_sampled_traces")
        assert gauge.value(decision="kept") == 1
        assert gauge.value(decision="dropped") == 1


class TestExecutorHooks:
    def test_dist_transfer_events_reconcile_and_inherit_context(self):
        from repro.datasets.synthetic import make_skewed
        from repro.dist import DistributedExecutor, build_distributed_plan
        from repro.obs.tracer import trace_context

        a = make_skewed(20, 24, mean_degree=5, sigma=1.0, seed=11)
        b = make_skewed(17, 24, mean_degree=5, sigma=1.0, seed=12)
        plan = build_distributed_plan(a, b, "cosine", k=4, n_devices=2,
                                      partition="1d_row")
        telemetry = Telemetry()
        ambient = deterministic_trace_id("caller", 1)
        with trace_context(ambient):
            report = DistributedExecutor(
                plan, telemetry=telemetry).execute()
        transfers = [r for r in telemetry.events
                     if r["kind"] == "transfer"]
        assert len(transfers) == report.n_comm_steps
        assert all(r["trace_id"] == ambient for r in transfers)
        assert sum(r["attrs"]["nbytes"] for r in transfers) \
            == report.comm_bytes_total
        for record in telemetry.events:
            validate_event(record)

    def test_dist_minted_trace_id_is_deterministic(self):
        from repro.datasets.synthetic import make_skewed
        from repro.dist import DistributedExecutor, build_distributed_plan

        a = make_skewed(20, 24, mean_degree=5, sigma=1.0, seed=11)
        b = make_skewed(17, 24, mean_degree=5, sigma=1.0, seed=12)
        ids = []
        for _ in range(2):
            plan = build_distributed_plan(a, b, "cosine", k=4,
                                          n_devices=2,
                                          partition="1d_row")
            telemetry = Telemetry()
            DistributedExecutor(plan, telemetry=telemetry).execute()
            ids.append(telemetry.events[0]["trace_id"])
        assert ids[0] == ids[1]

    def test_mutable_compaction_events(self):
        from repro.serve import MutableIndex
        from repro.testing import DEFAULT_SEED, skewed_csr

        corpus = skewed_csr(30, 16, seed=DEFAULT_SEED, scale=4,
                            floor=1, cap=10)
        telemetry = Telemetry()
        index = MutableIndex.build(corpus, metric="cosine", n_shards=2,
                                   telemetry=telemetry)
        index.compact()  # nothing dirty: a no-op report, still an event
        row = skewed_csr(1, 16, seed=3, scale=4, floor=1, cap=10)
        index.upsert(100, row)
        index.compact()
        events = telemetry.events
        assert [r["kind"] for r in events] == ["compaction",
                                               "compaction"]
        assert events[0]["attrs"]["noop"] is True
        assert events[1]["attrs"]["noop"] is False
        assert events[1]["attrs"]["generation"] == 1
        assert events[1]["attrs"]["absorbed_rows"] == 1
        for record in events:
            validate_event(record)
