import json
import tracemalloc

import numpy as np
import pytest

from raysweep import io as rio
from raysweep.depth import DepthResult, to_point_cloud
from raysweep.dsi import DsiGrid, vote_event
from raysweep.errors import (
    InsufficientCameras,
    NonMonotonicTimestamps,
    ParseError,
    QuaternionNormError,
)
from raysweep.events import Event, EventStream
from raysweep.geometry import Se3


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestEventParsing:
    def test_basic_line(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.5 10 20 1\n")
        s = rio.parse_events(p)
        assert s[0] == Event(0.5, 10, 20, 1)

    def test_zero_polarity_becomes_negative(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.5 10 20 0\n")
        assert rio.parse_events(p)[0].polarity == -1

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = write(tmp_path, "e.txt",
                  "# header\n0.1 1 2 1\n\n0.2 3 4 0\n0.3 5 6 1\n")
        assert len(rio.parse_events(p)) == 3

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.1 1 2 1\n0.2 nope 4 1\n")
        with pytest.raises(ParseError) as err:
            rio.parse_events(p)
        assert err.value.line == 2

    def test_wrong_field_count(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.1 1 2\n")
        with pytest.raises(ParseError):
            rio.parse_events(p)

    def test_out_of_bounds_rejected_with_line(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.1 1 2 1\n0.2 300 4 1\n")
        with pytest.raises(ParseError) as err:
            rio.parse_events(p, width=240, height=180)
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["0.1 3000000000 5 1", "0.1 5 -2147483649 0"])
    def test_coordinate_outside_int32_reports_line(self, tmp_path, line):
        # without sensor bounds only the int32 columns bound a coordinate
        p = write(tmp_path, "e.txt", f"0.0 1 2 1\n{line}\n")
        with pytest.raises(ParseError, match="outside int32") as err:
            rio.parse_events(p)
        assert err.value.line == 2

    def test_large_time_regression_rejected(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.5 1 2 1\n0.1 3 4 1\n")
        with pytest.raises(NonMonotonicTimestamps):
            rio.parse_events(p)

    def test_tiny_jitter_resorted(self, tmp_path):
        p = write(tmp_path, "e.txt",
                  "0.5000000 1 2 1\n0.4999999 3 4 1\n0.6 5 6 1\n")
        s = rio.parse_events(p)
        assert np.all(np.diff(s.t) >= 0)
        assert len(s) == 3

    def test_roundtrip_timestamps_within_1ns(self, tmp_path):
        rng = np.random.default_rng(20)
        n = 500
        s = EventStream(
            "c", np.sort(rng.uniform(0, 100, n)),
            rng.integers(0, 240, n, dtype=np.int32),
            rng.integers(0, 180, n, dtype=np.int32),
            rng.choice(np.array([-1, 1], np.int8), n),
        )
        p = tmp_path / "events.txt"
        rio.write_events(s, p)
        back = rio.parse_events(p)
        assert np.max(np.abs(back.t - s.t)) <= 1e-9
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)
        assert np.array_equal(back.polarity, s.polarity)


def _both_parsers(path, **bounds):
    """(vectorized, line-by-line) results; the vectorized one is None where
    it hands the file to the line parser."""
    w, h = bounds.get("width"), bounds.get("height")
    return rio._parse_events_blocks(path, w, h), rio._parse_events_lines(path, w, h)


class TestVectorizedEventParsing:
    """The vectorized pass returns exactly what the line parser returns, and
    hands every file it cannot take whole to the line parser."""

    CLEAN = (
        "# t x y p\n"
        "\n"
        "0.100000001 1 2 1\r\n"
        "  # indented comment\n"
        " 0.2  3\t4  0 \n"
        "0.1999999995 5 6 +1\n"  # jitter: stable re-sort
        "1999999995e-10 7 8 -1\n"  # the same stamp again: order kept
        "0.3 0 179 1\n"
    )

    def test_clean_file_identical(self, tmp_path):
        p = write(tmp_path, "e.txt", self.CLEAN)
        fast, lines = _both_parsers(p, width=240, height=180)
        assert fast is not None
        for a, b in zip(fast, lines):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert fast[1].tolist() == [1, 5, 7, 3, 0]
        assert fast[3].tolist() == [1, 1, -1, -1, 1]

    def test_random_file_identical_across_blocks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        n = 3000
        t = np.cumsum(rng.exponential(1e-4, n)) * 10.0 ** rng.integers(-3, 3)
        t[rng.choice(n, 40)] -= 5e-7  # sub-microsecond jitter
        xyp = zip(t.tolist(), rng.integers(0, 240, n).tolist(),
                  rng.integers(0, 180, n).tolist(), rng.integers(0, 2, n).tolist())
        text = "".join(f"{ti!r} {xi} {yi} {pi}\n" for ti, xi, yi, pi in xyp)
        p = write(tmp_path, "e.txt", "# header\n" + text)
        monkeypatch.setattr(rio, "_PARSE_CHARS", 1000)  # ~40 blocks
        fast, lines = _both_parsers(p)
        assert fast is not None
        for a, b in zip(fast, lines):
            assert np.array_equal(a, b)
        assert np.array_equal(rio.parse_events(p).t, lines[0])

    @pytest.mark.parametrize("text", [
        "0.1 1 2 1 # inline comment\n",
        "0.1 1 2 1\n0.2 1_0 2 1\n",      # int() takes it, numpy does not
        "0.1 1 2 2\n",
        "0.1 1 2 1\n0.2 300 4 1\n",
        "0.5 1 2 1\n0.1 3 4 1\n",
        "nan 1 2 1\n",
        "0.1 1 2 1\ninf 1 2 1\n",
        "# only a comment\n",
        "",
    ])
    def test_irregular_file_goes_to_line_parser(self, tmp_path, text):
        p = write(tmp_path, "e.txt", text)
        assert rio._parse_events_blocks(p, 240, 180) is None

    def test_inline_comment_reports_line(self, tmp_path):
        p = write(tmp_path, "e.txt", "# ok\n0.1 1 2 1\n0.2 3 4 1 # not ok\n")
        with pytest.raises(ParseError) as err:
            rio.parse_events(p)
        assert err.value.line == 3

    def test_line_parser_extensions_still_accepted(self, tmp_path):
        p = write(tmp_path, "e.txt", "0.1 1_0 2 1\n0.2 3 4 0\n")
        s = rio.parse_events(p)
        assert s.x.tolist() == [10, 3]

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_reports_line(self, tmp_path, stamp):
        p = write(tmp_path, "e.txt", f"# h\n0.0 1 2 1\n{stamp} 3 4 0\n0.2 5 6 1\n")
        with pytest.raises(ParseError, match="non-finite timestamp") as err:
            rio.parse_events(p)
        assert err.value.line == 3


class TestTrajectoryParsing:
    def test_identity_sample(self, tmp_path):
        p = write(tmp_path, "t.txt", "0.0 0 0 0 0 0 0 1\n")
        traj = rio.parse_trajectory(p)
        assert len(traj) == 1
        assert traj.pose_at(0).is_close(Se3.identity(), tol=1e-12)

    def test_two_samples_interpolatable(self, tmp_path):
        p = write(tmp_path, "t.txt", "0.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n")
        traj = rio.parse_trajectory(p)
        assert np.allclose(traj.interpolate(0.5).trans, [0.5, 0, 0])

    def test_slightly_off_norm_renormalized(self, tmp_path):
        q = np.array([0.0, 0.0, 0.0, 1.0005])
        p = write(tmp_path, "t.txt", f"0.0 0 0 0 {q[0]} {q[1]} {q[2]} {q[3]}\n")
        traj = rio.parse_trajectory(p)
        assert np.linalg.norm(traj.quats[0]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_norm_rejected(self, tmp_path):
        p = write(tmp_path, "t.txt", "0.0 0 0 0 0 0 0 1.01\n")
        with pytest.raises(QuaternionNormError):
            rio.parse_trajectory(p)

    @pytest.mark.parametrize("line", ["1.0 0 nan 0 0 0 0 1", "nan 0 0 0 0 0 0 1",
                                      "1.0 0 0 0 0 0 inf 1"])
    def test_non_finite_value_reports_line(self, tmp_path, line):
        p = write(tmp_path, "t.txt", f"0.0 0 0 0 0 0 0 1\n{line}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            rio.parse_trajectory(p)
        assert err.value.line == 2

    def test_malformed_line(self, tmp_path):
        p = write(tmp_path, "t.txt", "0.0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError):
            rio.parse_trajectory(p)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        q = rng.normal(size=(5, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        from raysweep.geometry import PoseTrajectory
        traj = PoseTrajectory(np.arange(5.0), q, rng.normal(size=(5, 3)))
        p = tmp_path / "traj.txt"
        rio.write_trajectory(traj, p)
        back = rio.parse_trajectory(p)
        assert np.max(np.abs(back.times - traj.times)) <= 1e-9
        assert np.max(np.abs(back.quats - traj.quats)) < 1e-15
        assert np.array_equal(back.trans, traj.trans)


class TestCalibrationParsing:
    def _doc(self, n_cams=2, fx=200.0, baseline=0.1184):
        cams = []
        for i in range(n_cams):
            cams.append({
                "name": f"cam{i}",
                "width": 240, "height": 180,
                "fx": fx, "fy": 200.0, "cx": 120.0, "cy": 90.0,
                "dist": [0.0, 0.0, 0.0, 0.0],
                "T_body_cam": {
                    "translation": [baseline * i, 0.0, 0.0],
                    "quaternion_xyzw": [0.0, 0.0, 0.0, 1.0],
                },
            })
        return {"rig": "test_rig", "cameras": cams}

    def test_minimal_stereo_rig(self, tmp_path):
        p = write(tmp_path, "c.json", json.dumps(self._doc()))
        rig = rio.parse_calibration(p)
        assert len(rig) == 2
        assert rig.cameras[1].T_body_cam.trans[0] == pytest.approx(0.1184)
        assert rig.camera_ids[0] == "cam0"

    def test_repeated_camera_name_rejected(self, tmp_path):
        doc = self._doc(n_cams=3)
        doc["cameras"][2]["name"] = "cam0"
        p = write(tmp_path, "c.json", json.dumps(doc))
        with pytest.raises(ParseError, match=rf"{p}: cameras\[2\]: camera name "
                                             r"'cam0' repeats cameras\[0\]"):
            rio.parse_calibration(p)

    def test_rig_refuses_repeated_ids(self, pinhole_cam):
        cam = pinhole_cam
        with pytest.raises(ValueError, match="repeats a camera id"):
            rio.RigCalibration("r", ("left", "left"), (cam, cam))

    def test_single_camera_rejected(self, tmp_path):
        p = write(tmp_path, "c.json", json.dumps(self._doc(n_cams=1)))
        with pytest.raises(InsufficientCameras):
            rio.parse_calibration(p)

    def test_negative_focal_rejected(self, tmp_path):
        p = write(tmp_path, "c.json", json.dumps(self._doc(fx=-5.0)))
        with pytest.raises(ParseError):
            rio.parse_calibration(p)

    def test_missing_field_names_path(self, tmp_path):
        doc = self._doc()
        del doc["cameras"][1]["fy"]
        p = write(tmp_path, "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as err:
            rio.parse_calibration(p)
        assert "cameras[1].fy" in str(err.value)

    def test_invalid_json(self, tmp_path):
        p = write(tmp_path, "c.json", "{nope")
        with pytest.raises(ParseError):
            rio.parse_calibration(p)

    @pytest.mark.parametrize("cameras,where", [
        ([1, 2], "cameras[0]"),
        ([None, None], "cameras[0]"),
        (["cam0", "cam1"], "cameras[0]"),
        ("good", "cameras[1]"),
        ("extrinsic", "cameras[1].T_body_cam"),
    ])
    def test_non_object_entry_names_it(self, tmp_path, cameras, where):
        doc = self._doc()
        if cameras == "good":
            doc["cameras"][1] = [doc["cameras"][1]]
        elif cameras == "extrinsic":
            doc["cameras"][1]["T_body_cam"] = [0.0, 0.0, 0.0]
        else:
            doc["cameras"] = cameras
        p = write(tmp_path, "c.json", json.dumps(doc))
        with pytest.raises(ParseError, match="must be a JSON object") as err:
            rio.parse_calibration(p)
        assert f"{where} must be" in str(err.value) and err.value.path == p

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
    def test_non_object_document_rejected(self, tmp_path, text):
        p = write(tmp_path, "c.json", text)
        with pytest.raises(ParseError, match="must be a JSON object"):
            rio.parse_calibration(p)

    def test_roundtrip(self, tmp_path):
        p = write(tmp_path, "c.json", json.dumps(self._doc()))
        rig = rio.parse_calibration(p)
        p2 = tmp_path / "c2.json"
        rio.write_calibration(rig, p2)
        rig2 = rio.parse_calibration(p2)
        for a, b in zip(rig.cameras, rig2.cameras):
            assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
            assert np.array_equal(a.T_body_cam.trans, b.T_body_cam.trans)


def make_result(cam, pixels):
    depth = np.zeros((cam.height, cam.width))
    conf = np.zeros((cam.height, cam.width))
    mask = np.zeros((cam.height, cam.width), bool)
    for (y, x), (z, c) in pixels.items():
        depth[y, x] = z
        conf[y, x] = c
        mask[y, x] = True
    return DepthResult(depth, conf, mask, Se3.identity(), cam, 0.5, 10.0)


class TestPfm:
    def test_roundtrip_bit_exact(self, pinhole_cam, tmp_path):
        rng = np.random.default_rng(22)
        res = make_result(pinhole_cam, {
            (int(rng.integers(0, 180)), int(rng.integers(0, 240))):
                (float(z), 1.0)
            for z in rng.uniform(0.5, 9.5, 300)
        })
        p = tmp_path / "d.pfm"
        rio.write_depth_pfm(res, p)
        back = rio.read_pfm(p)
        assert np.array_equal(back, res.masked_depth(0.0).astype(np.float32))

    def test_header_and_row_order(self, tmp_path):
        data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        p = tmp_path / "d.pfm"
        rio.write_pfm(data, p)
        raw = p.read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        # bottom row first
        payload = np.frombuffer(raw[len(b"Pf\n2 2\n-1.0\n"):], dtype="<f4")
        assert list(payload) == [3.0, 4.0, 1.0, 2.0]

    @pytest.mark.parametrize("cut", [1, 4, 7])
    def test_truncated_payload_is_parse_error(self, tmp_path, cut):
        p = tmp_path / "d.pfm"
        rio.write_pfm(np.ones((3, 4), np.float32), p)
        p.write_bytes(p.read_bytes()[:-cut])
        with pytest.raises(ParseError, match="truncated PFM payload") as err:
            rio.read_pfm(p)
        assert err.value.path == p

    def test_rejects_foreign_magic(self, tmp_path):
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(ParseError):
            rio.read_pfm(p)

    @pytest.mark.parametrize("dims,scale", [
        (b"abc 3", b"-1.0"), (b"3 2.5", b"-1.0"), (b"0 3", b"-1.0"),
        (b"3 -2", b"-1.0"), (b"3", b"-1.0"), (b"3 3 3", b"-1.0"),
        (b"3 3", b"abc"), (b"3 3", b""), (b"3 3", b"nan"), (b"3 3", b"0.0"),
    ])
    def test_bad_header_names_file(self, tmp_path, dims, scale):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"Pf\n" + dims + b"\n" + scale + b"\n" + b"\x00" * 36)
        header = " ".join((dims + b" " + scale).decode().split())
        with pytest.raises(ParseError, match="need a positive integer width and "
                                             "height and a nonzero scale") as err:
            rio.read_pfm(p)
        assert f"bad PFM header {header!r}" in str(err.value)
        assert err.value.path == p and str(p) in str(err.value)

    def test_huge_header_is_truncated_before_allocating(self, tmp_path):
        p = tmp_path / "huge.pfm"
        p.write_bytes(b"Pf\n100000 100000\n-1.0\n" + b"\x00" * 36)
        with pytest.raises(ParseError, match="truncated PFM payload"):
            rio.read_pfm(p)


class TestPgm:
    def test_normalized_8bit(self, pinhole_cam, tmp_path):
        res = make_result(pinhole_cam, {(0, 0): (1.0, 5.0), (1, 1): (1.0, 10.0)})
        p = tmp_path / "c.pgm"
        rio.write_confidence_pgm(res, p)
        raw = p.read_bytes()
        header = f"P5\n{pinhole_cam.width} {pinhole_cam.height}\n255\n".encode()
        assert raw.startswith(header)
        img = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(180, 240)
        assert img[1, 1] == 255
        assert img[0, 0] == 128  # round(0.5 * 255)
        assert img[5, 5] == 0


class TestPly:
    def test_empty_mask_zero_vertices(self, pinhole_cam, tmp_path):
        res = make_result(pinhole_cam, {})
        p = tmp_path / "c.ply"
        rio.write_ply(res, p)
        text = p.read_text()
        assert "element vertex 0" in text
        assert text.strip().endswith("end_header")

    def test_single_vertex_matches_point_cloud(self, pinhole_cam, tmp_path):
        res = make_result(pinhole_cam, {(90, 120): (2.5, 7.0)})
        p = tmp_path / "c.ply"
        rio.write_ply(res, p)
        lines = p.read_text().splitlines()
        n = int([l for l in lines if l.startswith("element vertex")][0].split()[-1])
        assert n == 1
        vals = [float(v) for v in lines[-1].split()]
        pts, conf = to_point_cloud(res)
        assert vals[:3] == list(pts[0])
        assert vals[3] == conf[0]

    def test_rows_match_per_row_format(self, pinhole_cam, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-5, 6, (500, 3))
        pts[:3] = [[-0.0, 1e-300, 1e300], [0.0, -1e300, 5e-324], [1 / 3, -2.5, 7.0]]
        conf = rng.uniform(0.0, 50.0, 500)
        conf[0] = -0.0
        monkeypatch.setattr(rio, "to_point_cloud", lambda result: (pts, conf))
        p = tmp_path / "c.ply"
        rio.write_ply(make_result(pinhole_cam, {}), p)
        rows = "".join(f"{x:.17g} {y:.17g} {z:.17g} {c:.17g}\n"
                       for (x, y, z), c in zip(pts, conf))
        assert p.read_text().endswith("end_header\n" + rows)
        assert "element vertex 500\n" in p.read_text()


class TestDsiDump:
    def test_header_and_roundtrip(self, pinhole_cam, tmp_path):
        grid = DsiGrid.create(Se3.identity(), pinhole_cam, 1.0, 4.0, 4)
        vote_event(grid, Event(0.0, 120, 90), pinhole_cam, Se3.identity(),
                   mode="nearest")
        p = tmp_path / "g.dsi"
        rio.write_dsi(grid, p)
        raw = p.read_bytes()
        w, h, nz = np.frombuffer(raw[:12], "<i4")
        z0, z1, r0, r1 = np.frombuffer(raw[12:28], "<f4")
        assert (w, h, nz) == (240, 180, 4)
        assert (z0, z1) == (np.float32(1.0), np.float32(4.0))
        assert r0 == 0.0 and r1 == 0.0
        assert len(raw) == 28 + 4 * w * h * nz

        votes, z_min, z_max = rio.read_dsi(p)
        assert votes.shape == (4, 180, 240)
        assert np.array_equal(votes, grid.votes.astype(np.float32))

    def test_x_fastest_order(self, pinhole_cam, tmp_path):
        grid = DsiGrid.create(Se3.identity(), pinhole_cam, 1.0, 4.0, 2)
        grid.votes[0, 0, 1] = 5.0  # plane 0, y 0, x 1 -> flat index 1
        p = tmp_path / "g.dsi"
        rio.write_dsi(grid, p)
        payload = np.frombuffer(p.read_bytes()[28:], "<f4")
        assert payload[1] == 5.0
        assert payload.sum() == 5.0

    @staticmethod
    def _dump(tmp_path, w, h, nz, payload=b"\x00" * 64):
        p = tmp_path / "g.dsi"
        p.write_bytes(np.array([w, h, nz], "<i4").tobytes()
                      + np.array([1.0, 4.0, 0.0, 0.0], "<f4").tobytes() + payload)
        return p

    @pytest.mark.parametrize("w,h,nz", [(-2, -2, 1), (0, 5, 1), (5, 0, 1), (2, 2, 0),
                                        (2, 2, -1)])
    def test_non_positive_size_is_parse_error(self, tmp_path, w, h, nz):
        p = self._dump(tmp_path, w, h, nz)
        with pytest.raises(ParseError, match="bad DSI header") as err:
            rio.read_dsi(p)
        assert err.value.path == p

    @pytest.mark.parametrize("cut", [1, 4])
    def test_truncated_payload_is_parse_error(self, tmp_path, cut):
        p = self._dump(tmp_path, 2, 2, 4, b"\x00" * (64 - cut))
        with pytest.raises(ParseError, match="truncated DSI payload"):
            rio.read_dsi(p)
        assert rio.read_dsi(self._dump(tmp_path, 2, 2, 4))[0].shape == (4, 2, 2)

    def test_huge_header_is_truncated_before_allocating(self, tmp_path):
        p = self._dump(tmp_path, 200, 200, 50)  # 8 MB of votes, 64 bytes given
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="truncated DSI payload"):
                rio.read_dsi(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
