"""Moving-blocks test object.

Square blocks of constant intensity translate across a zero background with
integer pixel motion per frame. When a block would leave the image it
reflects elastically (position mirrors off the wall, velocity component
flips), so total intensity is conserved exactly across frames.

Image arrays have shape (n_x, n_y), axis 0 = x, raveled row-major. Block
positions and velocities are (axis-0, axis-1) integer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Block:
    size: int
    start: tuple[int, int]
    velocity: tuple[int, int]
    intensity: float = 1.0


@dataclass(frozen=True)
class BlocksConfig:
    n_x: int = 64
    n_y: int = 64
    n_steps: int = 10  # transitions; frames generated = n_steps + 1
    blocks: tuple[Block, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1 or self.n_steps < 1:
            raise ConfigError("phantom dimensions and step count must be positive")
        for b in self.blocks:
            if b.size < 1 or b.size > min(self.n_x, self.n_y):
                raise ConfigError(f"block size {b.size} does not fit a {self.n_x}x{self.n_y} grid")
            if not (0.0 < b.intensity <= 1.0):
                raise ConfigError(f"block intensity must lie in (0, 1], got {b.intensity}")
            for ax, (p, n) in enumerate(zip(b.start, (self.n_x, self.n_y))):
                if not (0 <= p <= n - b.size):
                    raise ConfigError(f"block start {b.start} out of range on axis {ax}")
                if abs(b.velocity[ax]) > n - b.size:
                    raise ConfigError(f"block velocity {b.velocity} exceeds travel range")


# Reference layout on a 64x64 grid: four blocks, sizes {6, 6, 10, 10}, two
# moving at 2 px/frame and two at 1 px/frame. Other grid sizes scale this
# layout; at 64x64 the values below are reproduced exactly.
_REF_GRID = 64
_REF_BLOCKS = (
    Block(size=10, start=(8, 6), velocity=(2, 0), intensity=1.0),
    Block(size=10, start=(40, 44), velocity=(0, -2), intensity=0.8),
    Block(size=6, start=(12, 44), velocity=(1, 1), intensity=0.9),
    Block(size=6, start=(44, 10), velocity=(-1, 1), intensity=0.7),
)


def default_blocks_config(n_x=64, n_y=64, n_steps=10, seed=0) -> BlocksConfig:
    """Desk configuration, scaled from the 64x64 reference layout.

    Sizes, starts, and speeds scale with the grid (nonzero speeds keep
    magnitude >= 1 so the scene still moves on small grids); everything is
    clamped into the valid travel range."""
    blocks = []
    for ref in _REF_BLOCKS:
        size = max(1, round(ref.size * min(n_x, n_y) / _REF_GRID))
        start, velocity = [], []
        for ax, n in enumerate((n_x, n_y)):
            p = min(max(0, round(ref.start[ax] * n / _REF_GRID)), n - size)
            v = ref.velocity[ax]
            if v != 0:
                v = (1 if v > 0 else -1) * max(1, round(abs(v) * n / _REF_GRID))
            v = min(max(v, -(n - size)), n - size)
            start.append(p)
            velocity.append(v)
        blocks.append(Block(size=size, start=tuple(start),
                            velocity=tuple(velocity), intensity=ref.intensity))
    return BlocksConfig(n_x=n_x, n_y=n_y, n_steps=n_steps,
                        blocks=tuple(blocks), seed=seed)


def _reflect(pos: int, vel: int, lo: int, hi: int) -> tuple[int, int]:
    """Mirror pos into [lo, hi], flipping vel on each bounce."""
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2 * lo - pos
            vel = -vel
        else:
            pos = 2 * hi - pos
            vel = -vel
    return pos, vel


def generate_frames(cfg: BlocksConfig) -> np.ndarray:
    """Render the sequence; returns (n_steps + 1, n_x * n_y) float64.

    Deterministic for a given configuration. Overlapping blocks add, which
    keeps the per-frame intensity sum exactly constant.
    """
    frames = np.zeros((cfg.n_steps + 1, cfg.n_x * cfg.n_y))
    state = [(list(b.start), list(b.velocity)) for b in cfg.blocks]
    for t in range(cfg.n_steps + 1):
        img = np.zeros((cfg.n_x, cfg.n_y))
        for b, (pos, _vel) in zip(cfg.blocks, state):
            img[pos[0]:pos[0] + b.size, pos[1]:pos[1] + b.size] += b.intensity
        frames[t] = img.reshape(-1)
        for b, (pos, vel) in zip(cfg.blocks, state):
            for ax, hi in enumerate((cfg.n_x - b.size, cfg.n_y - b.size)):
                p, v = _reflect(pos[ax] + vel[ax], vel[ax], 0, hi)
                pos[ax], vel[ax] = p, v
    return frames
