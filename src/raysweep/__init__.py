"""raysweep: correspondence-free depth from synchronized event cameras.

Events from two or more rigidly attached event cameras are back-projected
into geometrically aligned ray-density volumes at a shared reference view,
fused voxel-wise with generalized means, and reduced to semi-dense depth
and confidence maps.
"""

from .depth import (
    DepthResult,
    adaptive_threshold,
    extract_depth,
    median_filter_depth,
    refine_result,
    to_point_cloud,
)
from .dsi import (
    DsiGrid,
    FusionOp,
    fuse,
    plane_depths,
    vote_event,
    vote_event_bruteforce,
    vote_events,
)
from .events import Chunk, Event, EventStream, chunk_events, select_reference_view
from .geometry import (
    CameraModel,
    PoseTrajectory,
    Se3,
    intersect_ray_with_depth_plane,
    relative_pose,
)
from .io import RigCalibration
from .pipeline import ChunkOutput, PipelineConfig, run_pipeline
from .synth import SyntheticScene, ground_truth_depth, make_scenario, simulate_events

__version__ = "0.1.0"

__all__ = [
    "CameraModel",
    "Chunk",
    "ChunkOutput",
    "DepthResult",
    "DsiGrid",
    "Event",
    "EventStream",
    "FusionOp",
    "PipelineConfig",
    "PoseTrajectory",
    "RigCalibration",
    "Se3",
    "SyntheticScene",
    "adaptive_threshold",
    "chunk_events",
    "extract_depth",
    "fuse",
    "ground_truth_depth",
    "intersect_ray_with_depth_plane",
    "make_scenario",
    "median_filter_depth",
    "plane_depths",
    "refine_result",
    "relative_pose",
    "run_pipeline",
    "select_reference_view",
    "simulate_events",
    "to_point_cloud",
    "vote_event",
    "vote_event_bruteforce",
    "vote_events",
]
