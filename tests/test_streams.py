"""Tests for ``streams.fill_signs``: the values and the generator state of
one dense ``integers(0, 2, shape) * 2.0 - 1.0`` draw, a chunk at a time."""

import numpy as np
import pytest

from lminlab import streams
from lminlab.errors import InvalidParameterError

CHUNK = streams._SIGN_CHUNK
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937]
SHAPES = [(1,), (3,), (1, 1), (257, 255), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (2 * CHUNK + 1,), (3, CHUNK // 2 + 1)]


def _state(rng):
    """The bit generator's state with its arrays as lists, so two states
    compare with ``==``."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("spare_half", [False, True])
def test_fill_signs_is_one_dense_draw(bit_generator, shape, spare_half):
    chunked, dense = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
    if spare_half:
        # a scalar draw uses one 32-bit half of a 64-bit output and keeps the
        # other; MT19937 makes 32-bit outputs and keeps nothing
        chunked.integers(0, 2)
        dense.integers(0, 2)
        assert chunked.bit_generator.state.get("has_uint32", 1) == 1
    out = np.full(shape, np.nan)
    assert streams.fill_signs(chunked, out) is out
    assert np.array_equal(out, dense.integers(0, 2, shape) * 2.0 - 1.0)
    assert _state(chunked) == _state(dense)
    assert chunked.random() == dense.random()


@pytest.mark.parametrize(
    "out",
    [np.empty((4, 6))[:, ::2], np.empty((4, 6), order="F"), np.empty(10)[::3], np.empty((3, 2), dtype=np.int64)],
    ids=["column-slice", "fortran", "strided", "int"],
)
def test_fill_signs_rejects_non_contiguous_or_non_float(out):
    rng = np.random.default_rng(0)
    before = _state(rng)
    with pytest.raises(InvalidParameterError, match="C-contiguous float"):
        streams.fill_signs(rng, out)
    assert _state(rng) == before
