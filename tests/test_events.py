import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raysweep.errors import NoCommonTimeSpan
from raysweep.events import Chunk, Event, EventStream, chunk_events, select_reference_view
from raysweep.geometry import CameraModel, PoseTrajectory, Se3


def stream_at(times, camera_id="cam"):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    return EventStream(camera_id, times, np.zeros(n, np.int32),
                       np.zeros(n, np.int32), np.ones(n, np.int8))


class TestEvent:
    def test_polarity_validated(self):
        with pytest.raises(ValueError):
            Event(0.0, 1, 2, polarity=0)

    def test_stream_requires_sorted_times(self):
        with pytest.raises(ValueError):
            stream_at([0.2, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stream_requires_finite_times(self, bad):
        with pytest.raises(ValueError, match="event 1 has a non-finite"):
            stream_at([0.0, bad, 0.2])

    @pytest.mark.parametrize("i0,i1", [(0, 5), (1, 4), (2, 2), (4, 5), (3, 9)])
    def test_slice_keeps_read_only_columns(self, i0, i1):
        rng = np.random.default_rng(8)
        whole = EventStream("c", np.sort(rng.uniform(0, 1, 5)),
                            rng.integers(0, 9, 5), rng.integers(0, 9, 5),
                            rng.choice([-1, 1], 5))
        part = whole.slice(i0, i1)
        assert type(part) is EventStream and part.camera_id == "c"
        for name in ("t", "x", "y", "polarity"):
            col, full = getattr(part, name), getattr(whole, name)
            assert col.dtype == full.dtype and not col.flags.writeable
            assert col.tobytes() == full[i0:i1].tobytes()
        with pytest.raises(ValueError):
            part.t[:] = 0.0

    @pytest.mark.parametrize("columns,match", [
        (([0.2, 0.1], [0, 0], [0, 0], [1, 1]), "non-decreasing"),
        (([0.1, np.nan], [0, 0], [0, 0], [1, 1]), "non-finite"),
        (([0.1, 0.2], [0, 0], [0, 0], [1, 0]), "polarities"),
        (([0.1, 0.2], [0], [0, 0], [1, 1]), "one length"),
    ])
    def test_constructor_still_refuses_bad_columns(self, columns, match):
        with pytest.raises(ValueError, match=match):
            EventStream("c", *columns)

    def test_stream_roundtrip_single_events(self):
        s = EventStream.from_events("c", [Event(0.1, 3, 4, -1), Event(0.2, 5, 6, 1)])
        assert len(s) == 2
        assert s[0] == Event(0.1, 3, 4, -1)
        assert s[1].polarity == 1


class TestChunking:
    def test_one_stream_one_event_per_window(self):
        chunks = chunk_events([stream_at([0.1, 0.6, 1.1])], 0.5)
        assert len(chunks) == 3
        assert [c.total_events() for c in chunks] == [1, 1, 1]
        assert chunks[0].t_start == pytest.approx(0.1)

    def test_all_events_inside_first_window(self):
        chunks = chunk_events([stream_at([0.0, 0.1, 0.2, 0.3])], 0.5)
        assert len(chunks) == 1
        assert chunks[0].total_events() == 4

    def test_two_stream_fixture_hand_enumerated(self):
        # Streams spanning [0, 1.0] and [0.25, 1.25]; windows anchor at the
        # latest start (0.25) and extend far enough to cover the last event.
        # Boundary events open the next window (half-open intervals), so the
        # event at exactly 0.75 lands in window 1 and the one at 1.25 gets
        # window 2 to itself.
        a = stream_at([0.0, 0.75, 1.0], "a")
        b = stream_at([0.25, 0.75, 1.25], "b")
        chunks = chunk_events([a, b], 0.5)
        assert len(chunks) == 3
        assert chunks[0].t_start == 0.25 and chunks[0].t_end == 0.75
        assert list(chunks[0].events["a"].t) == []
        assert list(chunks[0].events["b"].t) == [0.25]
        assert list(chunks[1].events["a"].t) == [0.75, 1.0]
        assert list(chunks[1].events["b"].t) == [0.75]
        assert list(chunks[2].events["b"].t) == [1.25]
        # the a-event at t=0.0 precedes the common start and is dropped
        total = sum(c.total_events() for c in chunks)
        assert total == 6 - 1

    def test_empty_interior_chunks_retained(self):
        chunks = chunk_events([stream_at([0.1, 1.7])], 0.5)
        assert len(chunks) == 4
        assert [c.total_events() for c in chunks] == [1, 0, 0, 1]

    def test_no_overlap_raises(self):
        a = stream_at([0.0, 0.1], "a")
        b = stream_at([0.5, 0.6], "b")
        with pytest.raises(NoCommonTimeSpan):
            chunk_events([a, b], 0.5)

    def test_empty_stream_raises(self):
        with pytest.raises(NoCommonTimeSpan):
            chunk_events([EventStream.empty("a")], 0.5)

    def test_chunk_invariants(self):
        chunks = chunk_events([stream_at(np.linspace(0.0, 2.0, 101))], 0.3)
        for c in chunks:
            assert c.t_start < c.t_end
            for s in c.events.values():
                if len(s):
                    assert s.t.min() >= c.t_start
                    assert s.t.max() <= c.t_end

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=200),
           st.floats(0.01, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_partition_conserves_events(self, times, duration):
        # single stream: nothing precedes the common start, so chunking is
        # an exact partition
        s = stream_at(sorted(times))
        chunks = chunk_events([s], duration)
        assert sum(c.total_events() for c in chunks) == len(s)
        # and no duplication: concatenated chunk times == original times
        cat = np.concatenate([c.events["cam"].t for c in chunks])
        assert np.array_equal(cat, s.t)


class TestReferenceView:
    def _cam(self, extrinsic=None):
        return CameraModel(fx=200, fy=200, cx=120, cy=90, width=240, height=180,
                           T_body_cam=extrinsic or Se3.identity())

    def test_static_trajectory(self):
        pose = Se3(np.array([0, 0, 0, 1.0]), np.array([1.0, 2.0, 3.0]))
        traj = PoseTrajectory.from_poses([(0.0, pose), (1.0, pose)])
        chunk = Chunk(0, 0.0, 1.0)
        ref = select_reference_view(chunk, traj, self._cam())
        assert ref.is_close(pose, tol=1e-12)

    def test_linear_translation_midpoint(self):
        traj = PoseTrajectory.from_poses([
            (0.0, Se3(np.array([0, 0, 0, 1.0]), np.zeros(3))),
            (1.0, Se3(np.array([0, 0, 0, 1.0]), np.array([1.0, 0, 0]))),
        ])
        ref = select_reference_view(Chunk(0, 0.0, 1.0), traj, self._cam())
        assert np.allclose(ref.trans, [0.5, 0, 0], atol=1e-12)

    def test_extrinsic_composed(self):
        traj = PoseTrajectory.from_poses([
            (0.0, Se3(np.array([0, 0, 0, 1.0]), np.zeros(3))),
            (1.0, Se3(np.array([0, 0, 0, 1.0]), np.array([1.0, 0, 0]))),
        ])
        ext = Se3(np.array([0, 0, 0, 1.0]), np.array([0.05, 0.0, 0.0]))
        ref = select_reference_view(Chunk(0, 0.0, 1.0), traj, self._cam(ext))
        # identity rotations: translations simply add
        assert np.allclose(ref.trans, [0.55, 0, 0], atol=1e-12)

    def test_constant_velocity_symmetric_chunk(self):
        traj = PoseTrajectory.from_poses([
            (0.0, Se3(np.array([0, 0, 0, 1.0]), np.zeros(3))),
            (2.0, Se3(np.array([0, 0, 0, 1.0]), np.array([2.0, 0, 0]))),
        ])
        ref = select_reference_view(Chunk(0, 0.25, 0.75), traj, self._cam())
        assert np.max(np.abs(ref.trans - [0.5, 0, 0])) < 1e-9
