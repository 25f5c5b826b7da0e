"""Moving-blocks phantom: conservation, reflection, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynct.errors import ConfigError
from dynct.phantom import (Block, BlocksConfig, _REF_BLOCKS,
                           default_blocks_config, generate_frames)


def test_reference_layout_reproduced_at_64():
    cfg = default_blocks_config(64, 64, 10)
    assert cfg.blocks == _REF_BLOCKS


def test_total_intensity_conserved():
    cfg = default_blocks_config(64, 64, 10)
    frames = generate_frames(cfg)
    expected = sum(b.size ** 2 * b.intensity for b in cfg.blocks)
    np.testing.assert_allclose(frames.sum(axis=1), expected, rtol=1e-12)


def test_frames_shape_and_range():
    cfg = default_blocks_config(16, 16, 3)
    frames = generate_frames(cfg)
    assert frames.shape == (4, 256)
    assert frames.min() >= 0.0


def test_determinism():
    cfg = default_blocks_config(32, 32, 5)
    a = generate_frames(cfg)
    b = generate_frames(cfg)
    assert np.array_equal(a, b)


def test_single_block_pure_translation():
    # far from walls: frame t is frame 0 shifted by t*velocity exactly
    cfg = BlocksConfig(n_x=32, n_y=32, n_steps=3, blocks=(
        Block(size=4, start=(10, 10), velocity=(2, 1), intensity=1.0),))
    frames = generate_frames(cfg).reshape(4, 32, 32)
    for t in range(1, 4):
        np.testing.assert_array_equal(
            frames[t], np.roll(np.roll(frames[0], 2 * t, axis=0), t, axis=1))


def test_reflection_keeps_block_inside():
    cfg = BlocksConfig(n_x=12, n_y=12, n_steps=30, blocks=(
        Block(size=3, start=(8, 1), velocity=(1, 1), intensity=0.5),))
    frames = generate_frames(cfg)
    np.testing.assert_allclose(frames.sum(axis=1), 9 * 0.5, rtol=1e-12)


def test_validation_errors():
    with pytest.raises(ConfigError):
        BlocksConfig(n_x=8, n_y=8, n_steps=2, blocks=(
            Block(size=9, start=(0, 0), velocity=(0, 0)),))
    with pytest.raises(ConfigError):
        BlocksConfig(n_x=8, n_y=8, n_steps=2, blocks=(
            Block(size=2, start=(7, 0), velocity=(0, 0)),))
    with pytest.raises(ConfigError):
        BlocksConfig(n_x=8, n_y=8, n_steps=0)
    with pytest.raises(ConfigError):
        BlocksConfig(n_x=8, n_y=8, n_steps=2, blocks=(
            Block(size=2, start=(0, 0), velocity=(0, 0), intensity=0.0),))


@settings(max_examples=25, deadline=None)
@given(st.integers(12, 48), st.integers(12, 48), st.integers(1, 8))
def test_default_config_valid_on_any_grid(n_x, n_y, n_steps):
    cfg = default_blocks_config(n_x, n_y, n_steps)
    frames = generate_frames(cfg)
    assert frames.shape == (n_steps + 1, n_x * n_y)
    sums = frames.sum(axis=1)
    np.testing.assert_allclose(sums, sums[0], rtol=1e-12)
