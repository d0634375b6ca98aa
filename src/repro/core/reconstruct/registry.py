"""Name-keyed registry of reconstruction backends.

Configuration layers (``SiftConfig``, the CLI, checkpoints) refer to
backends by these short names; the registry is the single place a new
backend plugs in — the CLI choices, the ablation sweep and the
reconstruction-quality benchmark all enumerate it instead of hardcoding
class lists.
"""

from __future__ import annotations

from typing import Any

from repro.core.reconstruct.averagers import MeanAverager, NoiseAwareAverager
from repro.core.reconstruct.base import Averager, Stitcher, StitcherFactory
from repro.core.reconstruct.stitchers import CalibratedStitcher, OverlapRatioStitcher
from repro.errors import ConfigurationError

DEFAULT_STITCHER = "overlap_ratio"
DEFAULT_AVERAGER = "mean"

STITCHERS: dict[str, type[Stitcher]] = {
    OverlapRatioStitcher.name: OverlapRatioStitcher,
    CalibratedStitcher.name: CalibratedStitcher,
}

AVERAGERS: dict[str, type[Averager]] = {
    MeanAverager.name: MeanAverager,
    NoiseAwareAverager.name: NoiseAwareAverager,
}


def stitcher_names() -> tuple[str, ...]:
    """Registered stitcher names, sorted."""
    return tuple(sorted(STITCHERS))


def averager_names() -> tuple[str, ...]:
    """Registered averager names, sorted."""
    return tuple(sorted(AVERAGERS))


def make_stitcher(name: str, **params: Any) -> Stitcher:
    """A fresh stitcher instance for *name* (raises on unknown names)."""
    return stitcher_factory(name, **params)()


def stitcher_factory(name: str, **params: Any) -> StitcherFactory:
    """A zero-argument constructor of fresh *name* stitchers.

    The averaging loop stitches once per round, each time from a clean
    slate, so callers hold a factory rather than an instance.
    """
    cls = STITCHERS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown stitcher {name!r}; choose from {stitcher_names()}"
        )
    return lambda: cls(**params)


def make_averager(name: str, **params: Any) -> Averager:
    """An averager instance for *name* (raises on unknown names).

    Averagers are stateless across calls — per-geography state lives in
    the accumulator each ``average()`` call creates — so one instance
    serves every geography of a study.
    """
    cls = AVERAGERS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown averager {name!r}; choose from {averager_names()}"
        )
    return cls(**params)
