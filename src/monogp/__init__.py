"""Structure-aware monocular SLAM back-end with global vanishing-direction
primitives, plus a synthetic benchmark harness."""

from .geometry import (
    CameraIntrinsics,
    OrthonormalLine,
    PluckerLine,
    Pose,
    se3_exp,
)
from .segments import Segment2D
from .vanishing import detect_vanishing_points, lift_vanishing_point
from .primitives import GlobalPrimitive, GlobalPrimitiveRegistry, fuse_directions
from .graph import FactorGraph, optimize, total_cost
from .simulate import ScenarioConfig
from .evaluate import Trajectory, ate_rmse, umeyama_align
from .pipeline import run_ablation, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics", "OrthonormalLine", "PluckerLine", "Pose",
    "se3_exp", "Segment2D",
    "detect_vanishing_points", "lift_vanishing_point",
    "GlobalPrimitive", "GlobalPrimitiveRegistry", "fuse_directions",
    "FactorGraph", "optimize", "total_cost",
    "ScenarioConfig", "Trajectory", "ate_rmse", "umeyama_align",
    "run_ablation", "run_pipeline",
]
