"""Output checks: every mapper call is held to the first call's outputs,
to a stored reference where one exists for the seed, to full event
accounting and, where the workload demands it, to ground-truth quality.

A failed check marks chunks as failed; a run is correct when none is.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NO_PLANE = 255
# Bilinear votes may tie at an argmax after any change of summation order;
# beyond this share of pixels a difference is more than ties.
MAX_TIE_SHARE = 0.005
# Where the depth plane holds, the depth must hold to this relative error
# (well above float32 storage rounding, far below one plane spacing).
DEPTH_RTOL = 1e-6
MIN_INLIERS = 0.90
MIN_DENSITY = 0.50


def digest(result) -> str:
    """sha256 of a chunk's mask and masked depth (float64), bit-exact."""
    if result is None:
        return "no result"
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.mask).tobytes())
    h.update(np.ascontiguousarray(np.where(result.mask, result.depth, 0.0)).tobytes())
    return h.hexdigest()


def plane_map(result, config) -> np.ndarray:
    """Nearest depth-plane index per masked pixel, NO_PLANE elsewhere."""
    inv = np.linspace(1.0 / config.z_min, 1.0 / config.z_max, config.num_planes)
    spacing = inv[0] - inv[1]
    with np.errstate(divide="ignore"):
        idx = np.rint((inv[0] - 1.0 / result.depth) / spacing)
    idx = np.clip(np.nan_to_num(idx), 0, config.num_planes - 1).astype(np.uint8)
    return np.where(result.mask, idx, NO_PLANE).astype(np.uint8)


def encode_array(values: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(values.tobytes(), 9)).decode("ascii")


def decode_array(text: str, dtype) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=dtype)


def fingerprint(outputs, config) -> list[dict]:
    """What the reference file stores per chunk: the digest, and for
    bilinear voting, which may differ at ties, the plane map and the
    masked depth (float32, row-major over the masked pixels)."""
    out = []
    for o in outputs:
        entry = {"digest": digest(o.result), "valid": o.result.num_valid}
        if config.voting != "nearest":
            entry["planes"] = encode_array(plane_map(o.result, config))
            entry["depth"] = encode_array(o.result.depth[o.result.mask].astype(np.float32))
        out.append(entry)
    return out


def reference_path(workload, n_points: int) -> Path:
    return REFERENCE_DIR / f"{workload.name}-{n_points}.json"


def load_reference(workload, n_points: int, seed: int):
    """Stored per-chunk fingerprints for this seed, or None."""
    path = reference_path(workload, n_points)
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def compare_reference(outputs, config, ref, exact: bool) -> tuple[list[int], dict]:
    """Chunks that differ from the stored reference beyond what is allowed.

    With ``exact`` (nearest voting) the digest must match. Otherwise the
    share of pixels whose mask or depth plane differs must stay within
    MAX_TIE_SHARE of the pixels masked in either map, and every pixel whose
    plane holds must keep its depth within DEPTH_RTOL.
    """
    info = {"exact_chunks": 0, "chunks": len(outputs),
            "differing_pixels": 0, "masked_pixels": 0, "max_rel_depth_err": 0.0}
    if len(ref) != len(outputs):
        return [o.index for o in outputs], info
    bad = []
    for o, r in zip(outputs, ref):
        if digest(o.result) == r["digest"]:
            info["exact_chunks"] += 1
            info["masked_pixels"] += o.result.num_valid
            continue
        if exact:
            bad.append(o.index)
            continue
        got = plane_map(o.result, config)
        want = decode_array(r["planes"], np.uint8).reshape(got.shape)
        want_depth = np.zeros(got.shape)
        want_depth[want != NO_PLANE] = decode_array(r["depth"], np.float32)
        either = (got != NO_PLANE) | (want != NO_PLANE)
        same = (got == want) & (got != NO_PLANE)
        n_diff = int(np.count_nonzero((got != want) & either))
        n_either = int(np.count_nonzero(either))
        rel = np.abs(o.result.depth[same] - want_depth[same]) / want_depth[same]
        rel_max = float(rel.max()) if rel.size else 0.0
        info["differing_pixels"] += n_diff
        info["masked_pixels"] += n_either
        info["max_rel_depth_err"] = max(info["max_rel_depth_err"], rel_max)
        if n_diff > MAX_TIE_SHARE * max(n_either, 1) or rel_max > DEPTH_RTOL:
            bad.append(o.index)
    return bad, info


def check_accounting(outputs, inputs) -> tuple[list[str], set[int]]:
    """Run level: events generated = sum of events read + events before
    the common start. Chunk level: read = voted + skipped, and no chunk is
    skipped. Returns the problems and the chunks they fail (all of them
    for a run-level problem)."""
    problems, bad = [], set()
    read = sum(o.stats.get("events_read", 0) for o in outputs)
    if read + inputs.events_before_start != inputs.events_generated:
        problems.append(
            f"{inputs.events_generated} events generated != {read} read + "
            f"{inputs.events_before_start} before the common start"
        )
        bad = {o.index for o in outputs}
    for o in outputs:
        s = o.stats
        if o.skipped or o.result is None:
            problems.append(f"chunk {o.index} skipped ({s.get('skipped')})")
            bad.add(o.index)
        elif s["events_read"] != s["events_voted"] + s["events_skipped"]:
            problems.append(
                f"chunk {o.index}: read {s['events_read']} != voted "
                f"{s['events_voted']} + skipped {s['events_skipped']}"
            )
            bad.add(o.index)
    return problems, bad


def check_written(outputs, config, rs) -> list[int]:
    """File workloads: each chunk's depth PFM holds the masked depth and
    stats.json has one entry per chunk."""
    out = Path(config.out_dir)
    bad = []
    for o in outputs:
        if o.result is None:
            continue
        path = out / f"depth_chunk{o.index:03d}.pfm"
        ok = path.exists() and np.array_equal(
            rs.io.read_pfm(path), o.result.masked_depth(0.0).astype(np.float32)
        )
        for name in (f"confidence_chunk{o.index:03d}.pgm", f"cloud_chunk{o.index:03d}.ply"):
            ok &= (out / name).exists()
        if not ok:
            bad.append(o.index)
    stats = out / "stats.json"
    if not stats.exists() or len(json.loads(stats.read_text())) != len(outputs):
        bad = [o.index for o in outputs]
    return bad


def quality(outputs, inputs, rs) -> dict:
    """Criterion-3 measures pooled over the chunks: inlier share (within
    one inverse-depth plane spacing), outlier share (unmatched or >10%
    relative error) and ground-truth density, with per-chunk results."""
    cfg = inputs.config
    tol = (1.0 / cfg.z_min - 1.0 / cfg.z_max) / (cfg.num_planes - 1)
    sc = inputs.scenario
    n_pred = n_gt = inl = outl = dens = 0
    per_chunk = {}
    for o in outputs:
        if o.result is None:
            continue
        gt = rs.synth.ground_truth_depth(sc.scene, o.result.ref_pose, sc.rig.cameras[0])
        m = rs.evaluation.compare_depth_results(o.result, gt, inv_depth_tol=tol)
        per_chunk[o.index] = m
        n_pred += m.n_pred
        n_gt += m.n_gt
        inl += round(m.inlier_fraction * m.n_pred) if m.n_pred else 0
        outl += round(m.outlier_fraction * m.n_pred)
        dens += round(m.density * m.n_gt)
    return {
        "inlier_frac": inl / n_pred if n_pred else 0.0,
        "outlier_frac": outl / n_pred if n_pred else 1.0,
        "density": dens / n_gt if n_gt else 0.0,
        "n_pred": n_pred,
        "n_gt": n_gt,
        "per_chunk": per_chunk,
    }


def quality_failures(q) -> list[int]:
    """Chunks below criterion 3 (inliers >= 0.90, density >= 0.50)."""
    return [
        i for i, m in q["per_chunk"].items()
        if not (m.inlier_fraction >= MIN_INLIERS and m.density >= MIN_DENSITY)
    ]
