"""Canned benchmark scenarios."""
from __future__ import annotations

from dataclasses import replace

from .simulate import (
    InitPerturbation,
    NoiseSpec,
    ScenarioConfig,
    TrajectorySpec,
    VisibilitySpec,
)

ORTHOGONAL_FAMILIES = [
    ([1.0, 0.0, 0.0], 20),
    ([0.0, 1.0, 0.0], 20),
    ([0.0, 0.0, 1.0], 20),
]


def default_corridor(seed: int = 0) -> ScenarioConfig:
    """Noiseless 20-keyframe corridor; fixed point of the optimizer."""
    return ScenarioConfig(
        name="corridor",
        rng_seed=seed,
        n_points=200,
        direction_families=[(d, c) for d, c in ORTHOGONAL_FAMILIES],
        trajectory=TrajectorySpec("corridor", 20, 0.25),
    )


def perturbed_corridor(seed: int) -> ScenarioConfig:
    """Corridor with 1 px noise and 1 deg / 5 cm initialization errors."""
    return replace(default_corridor(seed), name="corridor-perturbed",
                   noise=NoiseSpec(sigma_point_px=1.0, sigma_endpoint_px=1.0,
                                   sigma_flow_px=0.5),
                   init_perturbation=InitPerturbation(rot_deg=1.0, trans_m=0.05))


def structured(seed: int = 0) -> ScenarioConfig:
    """Low-texture structured scene: few noisy points, many family lines."""
    return ScenarioConfig(
        name="structured",
        rng_seed=seed,
        n_points=25,
        direction_families=[(d, c) for d, c in ORTHOGONAL_FAMILIES],
        trajectory=TrajectorySpec("corridor", 20, 0.25),
        noise=NoiseSpec(sigma_point_px=2.0, sigma_endpoint_px=1.0,
                        sigma_flow_px=0.5),
        init_perturbation=InitPerturbation(rot_deg=2.0, trans_m=0.08),
    )


def nonoverlap(seed: int = 0) -> ScenarioConfig:
    """Partitioned visibility: early and late frames share zero landmarks
    but observe the same direction families."""
    return ScenarioConfig(
        name="nonoverlap",
        rng_seed=seed,
        n_points=60,
        direction_families=[(d, c) for d, c in ORTHOGONAL_FAMILIES],
        trajectory=TrajectorySpec("corridor", 50, 0.2),
        noise=NoiseSpec(sigma_point_px=2.0, sigma_endpoint_px=1.0,
                        sigma_flow_px=0.5),
        init_perturbation=InitPerturbation(rot_deg=2.0, trans_m=0.08),
        visibility=VisibilitySpec(max_range=14.0,
                                  partition_windows=[[0, 28], [22, 50]]),
    )
