"""Canned benchmark scenarios: each is the committed `configs/<name>.json`
that `monogp run --config` reads, with its seed set. The files sit at the
repository root, so these need a source checkout (`PYTHONPATH=src` or
`pip install -e .`)."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .simulate import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def _scenario(name: str, seed: int) -> ScenarioConfig:
    return replace(ScenarioConfig.load(CONFIGS / f"{name}.json"), rng_seed=seed)


def default_corridor(seed: int = 0) -> ScenarioConfig:
    """Noiseless 20-keyframe corridor; fixed point of the optimizer."""
    return _scenario("corridor", seed)


def perturbed_corridor(seed: int) -> ScenarioConfig:
    """Corridor with 1 px noise and 1 deg / 5 cm initialization errors."""
    return _scenario("corridor-perturbed", seed)


def structured(seed: int = 0) -> ScenarioConfig:
    """Low-texture structured scene: few noisy points, many family lines."""
    return _scenario("structured", seed)


def nonoverlap(seed: int = 0) -> ScenarioConfig:
    """Partitioned visibility: early and late frames share zero landmarks
    but observe the same direction families."""
    return _scenario("nonoverlap", seed)
