"""Trace recorder filtering, taps, levels, and the bounded ring buffer."""

from repro.sim.trace import TraceLevel, TraceRecorder


class TestTraceRecorder:
    def test_emit_and_filter_by_kind(self):
        trace = TraceRecorder()
        trace.emit(1, "sw0", "queue.drop", port=1)
        trace.emit(2, "sw1", "tpp.exec", seq=5)
        trace.emit(3, "sw0", "tpp.exec", seq=6)
        assert len(trace.records(kind="tpp.exec")) == 2

    def test_filter_by_source(self):
        trace = TraceRecorder()
        trace.emit(1, "sw0", "x")
        trace.emit(2, "sw1", "x")
        assert [r.source for r in trace.records(source="sw0")] == ["sw0"]

    def test_filter_by_kind_and_source(self):
        trace = TraceRecorder()
        trace.emit(1, "sw0", "a")
        trace.emit(2, "sw0", "b")
        trace.emit(3, "sw1", "a")
        records = trace.records(kind="a", source="sw0")
        assert len(records) == 1 and records[0].time_ns == 1

    def test_detail_kwargs_stored(self):
        trace = TraceRecorder()
        trace.emit(5, "h0", "k", foo=1, bar="baz")
        record = trace.records()[0]
        assert record.detail == {"foo": 1, "bar": "baz"}

    def test_disabled_recorder_drops_everything(self):
        trace = TraceRecorder(enabled=False)
        trace.emit(1, "sw0", "x")
        assert len(trace) == 0

    def test_tap_sees_matching_records_live(self):
        trace = TraceRecorder()
        seen = []
        trace.add_tap(seen.append)
        trace.emit(1, "sw0", "x")
        trace.emit(2, "sw0", "y")
        assert [r.kind for r in seen] == ["x", "y"]

    def test_clear_keeps_taps(self):
        trace = TraceRecorder()
        seen = []
        trace.add_tap(seen.append)
        trace.emit(1, "a", "x")
        trace.clear()
        assert len(trace) == 0
        trace.emit(2, "a", "y")
        assert len(seen) == 2

    def test_iter_kind(self):
        trace = TraceRecorder()
        trace.emit(1, "a", "x")
        trace.emit(2, "a", "y")
        trace.emit(3, "a", "x")
        assert [r.time_ns for r in trace.iter_kind("x")] == [1, 3]


class TestTraceLevels:
    def test_debug_kinds_are_off_by_default(self):
        trace = TraceRecorder()  # default threshold: INFO
        trace.emit(1, "sw0", "link.deliver", frame_uid=1)
        trace.emit(2, "sw0", "tpp.exec", seq=1)
        assert [r.kind for r in trace.records()] == ["tpp.exec"]

    def test_wants_guards_the_hot_path(self):
        trace = TraceRecorder()
        assert not trace.wants("link.deliver")
        assert trace.wants("tpp.exec")
        assert trace.wants("queue.drop")
        assert not TraceRecorder(enabled=False).wants("queue.drop")

    def test_set_level_opens_the_firehose(self):
        trace = TraceRecorder()
        trace.set_level(TraceLevel.DEBUG)
        assert trace.wants("link.deliver")
        trace.emit(1, "sw0", "link.deliver", frame_uid=1)
        assert len(trace) == 1

    def test_warning_threshold_keeps_only_drops(self):
        trace = TraceRecorder(level=TraceLevel.WARNING)
        trace.emit(1, "sw0", "tpp.exec", seq=1)
        trace.emit(2, "sw0", "queue.drop", port=0)
        assert [r.kind for r in trace.records()] == ["queue.drop"]

    def test_unknown_kinds_default_to_info(self):
        trace = TraceRecorder()
        trace.emit(1, "sw0", "my.custom.kind", value=1)
        assert len(trace) == 1

    def test_set_kind_level_registers_new_kind(self):
        trace = TraceRecorder()
        trace.set_kind_level("my.firehose", TraceLevel.DEBUG)
        assert not trace.wants("my.firehose")
        trace.set_level(TraceLevel.DEBUG)
        assert trace.wants("my.firehose")

    def test_level_change_invalidates_wants_cache(self):
        trace = TraceRecorder()
        assert not trace.wants("link.deliver")  # populates the cache
        trace.set_level(TraceLevel.DEBUG)
        assert trace.wants("link.deliver")

    def test_firehose_flag_follows_the_levels(self):
        """Per-frame emit sites read ``firehose`` before ``wants``: it
        must be true whenever a default-DEBUG kind would be stored."""
        trace = TraceRecorder()
        assert not trace.firehose
        trace.set_level(TraceLevel.DEBUG)
        assert trace.firehose
        trace.set_level(TraceLevel.INFO)
        assert not trace.firehose
        # Promoting one firehose kind opens the flag at INFO too.
        trace.set_kind_level("queue.enqueue", TraceLevel.INFO)
        assert trace.firehose and trace.wants("queue.enqueue")
        assert not trace.wants("link.deliver")
        trace.set_kind_level("queue.enqueue", TraceLevel.DEBUG)
        assert not trace.firehose
        assert TraceRecorder(level=TraceLevel.DEBUG).firehose

    def test_taps_do_not_see_suppressed_records(self):
        trace = TraceRecorder(level=TraceLevel.WARNING)
        seen = []
        trace.add_tap(seen.append)
        trace.emit(1, "sw0", "tpp.exec", seq=1)
        trace.emit(2, "sw0", "queue.drop", port=0)
        assert [r.kind for r in seen] == ["queue.drop"]


class TestRingBuffer:
    def test_bounded_mode_keeps_most_recent(self):
        trace = TraceRecorder(max_records=3)
        for i in range(5):
            trace.emit(i, "sw0", "x", i=i)
        assert len(trace) == 3
        assert [r.time_ns for r in trace.records()] == [2, 3, 4]
        assert trace.records_emitted == 5
        assert trace.records_dropped == 2

    def test_taps_see_evicted_records_live(self):
        trace = TraceRecorder(max_records=1)
        seen = []
        trace.add_tap(seen.append)
        for i in range(4):
            trace.emit(i, "sw0", "x")
        assert len(seen) == 4
        assert len(trace) == 1

    def test_unbounded_mode_never_drops(self):
        trace = TraceRecorder()
        for i in range(100):
            trace.emit(i, "sw0", "x")
        assert trace.records_dropped == 0
        assert len(trace) == 100
