import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raysweep import _sweep
from raysweep import io as rio
from raysweep.cli import cli_main
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
from raysweep.pipeline import PipelineConfig


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
    """(compiled, line-by-line) results; the compiled one is None where it
    hands the file to the line parser."""
    w, h = bounds.get("width"), bounds.get("height")
    return rio._parse_events_blocks(path, w, h), rio._parse_events_lines(path, w, h)


def assert_same_columns(got, want):
    """(t, x, y, p) equal bit for bit: t as its uint64 bits, so -0.0 and
    0.0 differ."""
    assert [a.dtype for a in got] == [np.dtype(np.float64), np.dtype(np.int32),
                                      np.dtype(np.int32), np.dtype(np.int8)]
    assert [a.dtype for a in want] == [a.dtype for a in got]
    assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


def _columns(stream):
    return stream.t, stream.x, stream.y, stream.polarity


def random_event_text(rng, n, bounded):
    """Lines of ``n`` events, with comments and blank lines between them, in
    the forms both parsers take: CRLF and LF, runs of spaces and tabs,
    signs, leading zeros, exponent and 17-digit repr stamps, stamps that
    step back by under a microsecond, and x/y at the edges of the 240x180
    sensor or, unbounded, of int32."""
    t = np.cumsum(rng.exponential(1e-4, n)) * 10.0 ** rng.integers(-2, 4)
    t += rng.choice([0.0, -0.5])
    back = rng.choice(n, n // 20)
    t[back] -= 9e-7 * rng.random(back.size)
    if bounded:
        edges = [0, 239, 0, 179]
        xy = np.stack([rng.integers(0, 240, n), rng.integers(0, 180, n)], 1)
    else:
        edges = [-2**31, 2**31 - 1] * 2
        xy = rng.integers(-2**31, 2**31, (n, 2))
    edge = rng.random(n) < 0.1
    xy[edge, 0] = rng.choice(edges[:2], edge.sum())
    xy[edge, 1] = rng.choice(edges[2:], edge.sum())

    def number(v):
        return rng.choice([str(v), f"+{v}" if v >= 0 else str(v),
                           f"00{v}" if v >= 0 else f"-00{-v}"])

    def stamp(v):
        forms = [f"{v:.9f}", repr(v), f"{v:.12e}", f"{v:.10E}",
                 f"{v * 1e3:.6f}e-3", f"{v:.9f}".rstrip("0")]
        if v >= 0:
            forms += [f"+{v:.9f}", f"000{v:.9f}"]
        return str(rng.choice(forms))

    lines = ["# t x y p"]
    for k in range(n):
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", "  ", "\t", "# c", "  # indented",
                                         "\t#0.1 1 2 1"])))
        sep = [str(rng.choice([" ", "\t", "  ", " \t", "\t\t "])) for _ in range(3)]
        fields = [stamp(float(t[k])), number(int(xy[k, 0])), number(int(xy[k, 1])),
                  str(rng.choice(["0", "1", "-1", "+1", "00", "-0", "+01"]))]
        lines.append(str(rng.choice(["", " ", "\t"])) + fields[0] + sep[0]
                     + fields[1] + sep[1] + fields[2] + sep[2] + fields[3]
                     + str(rng.choice(["", " ", "\t "])))
    return lines


# (line, what the line parser makes of it): a ParseError subclass, or the
# line's (x, y) for a line only the line parser takes; {t} is the stamp of
# the event before it
_BAD_LINES = [
    ("{t} 2147483648 4 1", ParseError),  # outside int32
    ("{t} 1 2 2", ParseError),        # polarity
    ("{t} 1 2", ParseError),          # field count
    ("nan 1 2 1", ParseError),
    ("1e400 1 2 1", ParseError),      # inf
    ("{t} 1 2 1 # c", ParseError),    # inline comment
    ("{t} x 2 1", ParseError),
    ("-1e9 1 2 1", NonMonotonicTimestamps),
]
_LINE_PARSER_ONLY = [
    ("{t} 1_0 2 1", (10, 2)),
    ("\x0c{t} 3 4 1", (3, 4)),
    ("{t}\xa05 6 1", (5, 6)),
    ("{t} 7\x0b8 1", (7, 8)),
]


class TestVectorizedEventParsing:
    """The compiled pass returns exactly what the line parser returns, and
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

        # the order is checked across blocks: the second block's first event
        # steps back from the first block's latest by under, then over, the
        # jitter
        data = p.read_bytes()
        start = data.index(b"\n", 1000) + 1  # read(1000), then up to a line end
        at = data.count(b"\n", 0, start)  # that line's index; line 0 is "# header"
        rows = data.decode().split("\n")
        latest = float(t[:at - 1].max())
        for step in (9e-7, 2e-6):
            fields = rows[at].split()
            fields[0] = repr(latest - step)
            p.write_text("\n".join(rows[:at] + [" ".join(fields)] + rows[at + 1:]))
            if step < rio._TIME_JITTER:
                fast, lines = _both_parsers(p)
                assert fast is not None
                assert_same_columns(fast, lines)
                continue
            assert rio._parse_events_blocks(p, None, None) is None
            with pytest.raises(NonMonotonicTimestamps) as err:
                rio.parse_events(p)
            assert err.value.line == at + 1

    @pytest.mark.parametrize("text", [
        "0.1 1 2 1 # inline comment\n",
        "0.1 1 2 1\n0.2 1_0 2 1\n",      # int() takes it, the pass does not
        "0.1 1 2 2\n",
        "0.1 1 2 1\n0.2 300 4 1\n",
        "0.5 1 2 1\n0.1 3 4 1\n",
        "nan 1 2 1\n",
        "0.1 1 2 1\ninf 1 2 1\n",
        "# only a comment\n",
        "",
        "\x0c0.1 1 2 1\n",                # whitespace to str.split() only
        "0.1\xa01 2 1\n",
        "# \xe9\n0.1 1 2 1\n",             # non-ASCII, even in a comment
        "1e400 1 2 1\n",
        "0.1 1 2 1\n0.2 2147483648 2 1\n",
        "0.1 1 2 1\n# a lone CR ends this line\r0.2 3 4 1\n",
        "0.1 1 2 1\r0.2 3 4 1\n",
        "0.1 1 2 1e0\n",
        "0x1p-3 1 2 1\n",
        ". 1 2 1\n",
    ])
    def test_irregular_file_goes_to_line_parser(self, tmp_path, text):
        p = write(tmp_path, "e.txt", text)
        assert rio._parse_events_blocks(p, 240, 180) is None

    @pytest.mark.parametrize("stamp", [".5", "5.", "-0", "+.5e-3", "1E+2",
                                       "0.30000000000000004", "1e-400",
                                       "123456789012345678e-20"])
    def test_float_forms_identical(self, tmp_path, stamp):
        p = write(tmp_path, "e.txt", f"{stamp} 1 2 1\n")
        fast, lines = _both_parsers(p)
        assert fast is not None
        assert_same_columns(fast, lines)
        assert fast[0][0] == float(stamp)

    @pytest.mark.parametrize("seed", range(2 * (1 + len(_BAD_LINES)
                                                + len(_LINE_PARSER_ONLY))))
    def test_random_files_identical_or_same_error(self, tmp_path, monkeypatch,
                                                  seed):
        """The differential test: random files, blocks of 64-4096 bytes and
        lines longer than a block give the line parser's arrays bit for bit.
        With one line added, a bad line gives the line parser's error with
        its line number, a line only the line parser takes its arrays."""
        rng = np.random.default_rng(seed)
        bounded = seed % 2 == 0
        lines = random_event_text(rng, int(rng.integers(50, 400)), bounded)
        events = [k for k, line in enumerate(lines)
                  if line.strip() and not line.strip().startswith("#")]
        long = int(rng.choice(events))
        lines[long] = (" " * 5000).join(lines[long].split())
        lines.insert(int(rng.integers(1, len(lines))), "# " + "x" * 5000)
        end = "\r\n" if seed % 4 == 1 else "\n"
        p = tmp_path / "e.txt"
        monkeypatch.setattr(rio, "_PARSE_CHARS", int(rng.integers(64, 4097)))
        bounds = {"width": 240, "height": 180} if bounded else {}
        w, h = bounds.get("width"), bounds.get("height")

        p.write_bytes((end.join(lines) + end).encode())
        fast = rio._parse_events_blocks(p, w, h)
        want = rio._parse_events_lines(p, w, h)
        assert fast is not None
        assert_same_columns(fast, want)

        cases = [None] + _BAD_LINES + _LINE_PARSER_ONLY  # odd: each case
        injected = cases[seed % len(cases)]              # bounded and not
        if not injected:
            return
        at = int(rng.integers(len(lines) // 2, len(lines)))
        before = next(line for line in reversed(lines[:at])
                      if line.strip() and not line.strip().startswith("#"))
        lines.insert(at, injected[0].replace("{t}", before.split()[0]))
        p.write_bytes((end.join(lines) + end).encode())
        assert rio._parse_events_blocks(p, w, h) is None
        if isinstance(injected[1], type):
            with pytest.raises(injected[1]) as err:
                rio.parse_events(p, **bounds)
            assert err.value.line == at + 1
        else:  # a line only the line parser takes
            want = rio._parse_events_lines(p, w, h)
            assert len(want[0]) == len(fast[0]) + 1
            assert injected[1] in zip(want[1].tolist(), want[2].tolist())
            assert_same_columns(_columns(rio.parse_events(p, **bounds)), want)

    def test_same_arrays_without_the_c_library(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        p = write(tmp_path, "e.txt",
                  "\n".join(random_event_text(rng, 500, True)) + "\n")
        compiled = rio.parse_events(p, width=240, height=180)
        monkeypatch.setattr(_sweep, "_c_lib", None)
        monkeypatch.setattr(_sweep, "_c_error", "OSError: no compiler")
        assert rio._parse_events_blocks(p, 240, 180) is None
        fallback = rio.parse_events(p, width=240, height=180)
        assert_same_columns(_columns(fallback), _columns(compiled))

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

    @pytest.mark.parametrize("keys,value", [
        (("T_body_cam", "translation"), [math.nan, 0.0, 0.0]),
        (("T_body_cam", "quaternion_xyzw"), [0.0, 0.0, math.nan, 1.0]),
        (("fx",), math.inf),
        (("dist",), [math.nan, 0.0, 0.0, 0.0]),
    ], ids=["nan_translation", "nan_quaternion", "inf_fx", "nan_dist"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, keys, value):
        # JSON's NaN and Infinity parse; a camera holding one would map
        # nothing, so the file is refused, and `raysweep map` exits 2
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        path = out / "calibration.json"
        doc = json.loads(path.read_text())
        entry = doc["cameras"][1]
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"cameras\[1\]: .*finite"):
            rio.parse_calibration(path)
        capsys.readouterr()
        assert cli_main(["map", "--config", str(out / "config.json")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "results" / "stats.json").exists()

    @pytest.mark.parametrize("field,value", [
        ("width", 240.9), ("width", 1e300), ("height", True), ("fx", "200"),
        ("cy", False), ("name", 7), ("dist", [0.0, "1", 0.0, 0.0]),
        ("dist", [0.0, 0.0, 0.0]), ("T_body_cam.translation", [0.1, 0.0]),
        ("T_body_cam.translation", "0 0 0"),
        ("T_body_cam.quaternion_xyzw", [0.0, 0.0, 0.0, True]),
    ])
    def test_wrongly_typed_value_names_field(self, tmp_path, field, value):
        # json gives each value its JSON type; none is coerced to another
        doc = self._doc()
        *parents, key = field.split(".")
        entry = doc["cameras"][1]
        for parent in parents:
            entry = entry[parent]
        entry[key] = value
        p = write(tmp_path, "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as err:
            rio.parse_calibration(p)
        assert f"cameras[1].{field} must be" in str(err.value)
        assert err.value.path == p

    def test_integer_values_accepted(self, tmp_path):
        doc = self._doc(fx=200)
        doc["cameras"][1]["dist"] = [0, 0, 0, 0]
        doc["cameras"][1]["T_body_cam"]["translation"] = [1, 0, 0]
        p = write(tmp_path, "c.json", json.dumps(doc))
        rig = rio.parse_calibration(p)
        assert type(rig.cameras[0].fx) is float and rig.cameras[0].fx == 200.0
        assert rig.cameras[1].T_body_cam.trans.tolist() == [1.0, 0.0, 0.0]

    def test_integer_past_float_range_rejected(self, tmp_path):
        doc = self._doc()
        doc["cameras"][1]["fx"] = 10 ** 400
        p = write(tmp_path, "c.json", json.dumps(doc))
        with pytest.raises(ParseError, match=r"cameras\[1\]: int too large"):
            rio.parse_calibration(p)

    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        path = out / "calibration.json"
        doc = json.loads(path.read_text())
        doc["cameras"][0]["height"] = True  # would map a 1-row DSI
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["map", "--config", str(out / "config.json")]) == 2
        assert "cameras[0].height must be an integer, got True" in capsys.readouterr().err
        assert not (out / "results" / "stats.json").exists()

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


# Text files: lines of numbers at the edges of their types, with as many
# fields as an event or a trajectory sample or any count, stray bytes (not
# UTF-8, non-ASCII, NUL, a lone CR) and comments; or any bytes at all.
_NUMBERS = [b"0", b"1", b"-1", b"+1", b"0.5", b"0.25", b"1e-3", b"179", b"240",
            b"2147483648", b"1e300", b"-1e-320", b"nan", b"inf", b"1e400", b"1_0"]
_FIELDS = st.sampled_from(_NUMBERS)
_LINES = st.one_of(
    st.lists(st.sampled_from(_NUMBERS + [b"x", b"#", b"", b"\xff", b"\xc3\xa9",
                                         b"\xc3", b"\xa0", b"\r", b"\x00"]),
             max_size=9),
    st.lists(_FIELDS, min_size=4, max_size=4),
    st.lists(_FIELDS, min_size=8, max_size=8),
)
_TEXT_FILES = st.one_of(
    st.binary(max_size=300),
    st.lists(_LINES.map(b" ".join), max_size=30).map(b"\n".join),
)


class TestInputRules:
    """Every reader reads UTF-8 and names the file, and a text reader the
    line, of what it refuses."""

    @pytest.mark.parametrize("name,line", [
        ("events_left.txt", 3), ("trajectory.txt", 3), ("calibration.json", None),
        ("config.json", None)])
    def test_byte_not_utf8_names_file_and_line(self, tmp_path, capsys, name, line):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        path = out / name
        lines = path.read_bytes().split(b"\n")
        lines[2] += b" \xff"
        path.write_bytes(b"\n".join(lines))
        read = {"events_left.txt": rio.parse_events,
                "trajectory.txt": rio.parse_trajectory,
                "calibration.json": rio.parse_calibration,
                "config.json": PipelineConfig.load}[name]
        with pytest.raises(ParseError, match="0xff") as err:
            read(path)
        assert err.value.path == path and err.value.line == line
        capsys.readouterr()
        assert cli_main(["map", "--config", str(out / "config.json")]) == 2
        where = f"{path}: " + (f"line {line}: " if line else "")
        assert where in capsys.readouterr().err
        assert not (out / "results" / "stats.json").exists()

    @given(data=_TEXT_FILES, bounded=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_as_event_file_parse_or_raise_parse_error(
            self, tmp_path_factory, data, bounded):
        path = tmp_path_factory.getbasetemp() / "any_events.txt"
        path.write_bytes(data)
        bounds = {"width": 240, "height": 180} if bounded else {}
        try:
            stream = rio.parse_events(path, **bounds)
        except ParseError as e:
            assert e.path == path
            return
        assert np.all(np.diff(stream.t) >= 0)  # an empty file is an empty stream

    @given(data=_TEXT_FILES)
    @example(data=b"0 0 0 0 0 0 0 1e300\n")  # its norm overflows
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_as_trajectory_file_parse_or_raise_parse_error(
            self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "any_trajectory.txt"
        path.write_bytes(data)
        try:
            traj = rio.parse_trajectory(path)
        except ParseError as e:
            assert e.path == path
            return
        assert len(traj) > 0


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


PLY_HEADER = (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\n"
              b"property double x\nproperty double y\nproperty double z\n"
              b"property double confidence\nend_header\n")


class TestPly:
    @staticmethod
    def _extremes(monkeypatch):
        """500 rows of every magnitude with -0.0, the smallest subnormal,
        +-1e300 and 1/3 in the first three, which ``to_point_cloud``
        returns in place of the result's."""
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-5, 6, (500, 3))
        pts[:3] = [[-0.0, 1e-300, 1e300], [0.0, -1e300, 5e-324], [1 / 3, -2.5, 7.0]]
        conf = rng.uniform(0.0, 50.0, 500)
        conf[0] = -0.0
        monkeypatch.setattr(rio, "to_point_cloud", lambda result: (pts, conf))
        return pts, conf

    def test_empty_mask_zero_vertices(self, pinhole_cam, tmp_path):
        res = make_result(pinhole_cam, {})
        p = tmp_path / "c.ply"
        rio.write_ply(res, p)
        assert p.read_bytes() == PLY_HEADER % 0  # header only
        pts, conf = rio.read_ply(p)
        assert pts.shape == (0, 3) and conf.shape == (0,)

    def test_single_vertex_matches_point_cloud(self, pinhole_cam, tmp_path):
        res = make_result(pinhole_cam, {(90, 120): (2.5, 7.0)})
        p = tmp_path / "c.ply"
        rio.write_ply(res, p)
        raw = p.read_bytes()
        assert raw.startswith(PLY_HEADER % 1) and len(raw) == len(PLY_HEADER % 1) + 32
        pts, conf = to_point_cloud(res)
        vals = np.frombuffer(raw[-32:], "<f8")
        assert list(vals[:3]) == list(pts[0]) and vals[3] == conf[0]

    def test_rows_match_per_row_format(self, pinhole_cam, tmp_path, monkeypatch):
        # the payload is the float64 rows as they are: every value keeps its
        # bits, -0.0 and subnormals included
        pts, conf = self._extremes(monkeypatch)
        p = tmp_path / "c.ply"
        rio.write_ply(make_result(pinhole_cam, {}), p)
        rows = np.column_stack([pts, conf]).astype("<f8").tobytes()
        assert p.read_bytes() == PLY_HEADER % 500 + rows
        assert len(rows) == 32 * 500

    def test_read_round_trips_bit_for_bit(self, pinhole_cam, tmp_path, monkeypatch):
        pts, conf = self._extremes(monkeypatch)
        p = tmp_path / "c.ply"
        rio.write_ply(make_result(pinhole_cam, {}), p)
        got_pts, got_conf = rio.read_ply(p)
        assert got_pts.dtype == got_conf.dtype == np.float64
        assert got_pts.tobytes() == pts.tobytes()
        assert got_conf.tobytes() == conf.tobytes()

    @pytest.mark.parametrize("header,line", [
        # the ASCII layout that write_ply wrote before
        (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
         b"property float y\nproperty float z\nproperty float confidence\n"
         b"end_header\n", 2),
        (PLY_HEADER.replace(b"little", b"big"), 2),
        (PLY_HEADER.replace(b"double x", b"float x"), 4),
        (PLY_HEADER.replace(b"confidence", b"intensity"), 7),
        (PLY_HEADER.replace(b"property double z\n", b""), 6),
        (PLY_HEADER.replace(b"end_header", b"property double w\nend_header"), 8),
        (PLY_HEADER.replace(b"vertex %d", b"face %d"), 3),
        (PLY_HEADER.replace(b"vertex %d", b"vertex -%d"), 3),
        (PLY_HEADER.replace(b"vertex %d", b"vertex 0%d"), 3),
        (PLY_HEADER.replace(b"\n", b"\r\n"), 1),
        (b"PLY\n", 1),
        (b"", 1),
    ])
    def test_read_refuses_other_layouts(self, tmp_path, header, line):
        p = tmp_path / "x.ply"
        if b"%d" in header:
            header %= 1
        p.write_bytes(header + b"\x00" * 32)
        with pytest.raises(ParseError, match=f"PLY header line {line} is ") as err:
            rio.read_ply(p)
        assert err.value.path == p and str(p) in str(err.value)

    @pytest.mark.parametrize("size", [0, 31, 33, 64])
    def test_read_refuses_a_payload_of_another_size(self, tmp_path, size):
        p = tmp_path / "x.ply"
        p.write_bytes(PLY_HEADER % 1 + b"\x00" * size)
        with pytest.raises(ParseError, match=f"PLY payload of {size} bytes, "
                                             f"need 32 for 1 vertices") as err:
            rio.read_ply(p)
        assert err.value.path == p

    def test_huge_count_is_refused_before_allocating(self, tmp_path):
        p = tmp_path / "x.ply"
        p.write_bytes(PLY_HEADER % (10**17) + b"\x00" * 32)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="PLY payload of 32 bytes"):
                rio.read_ply(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
