"""Property test of ``streams.fill_signs``: any sequence of fills, of any
size, interleaved with scalar draws that take one 32-bit half of an output
(``integers(0, 2)``, which can leave a 64-bit generator holding the spare
half) or whole 64-bit words (``standard_normal()``, which leaves the spare
half where it was), gives the values and the generator state of the same
sequence with every fill a dense ``integers(0, 2, size) * 2.0 - 1.0``.
"""

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_streams import BIT_GENERATORS, CHUNK, _state  # noqa: E402

from lminlab import streams  # noqa: E402

FILL_SIZES = st.one_of(
    st.sampled_from([0, 1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1]),
    st.integers(0, 200).map(lambda k: 2 * k + 1),
    st.integers(0, 400),
)
STEPS = st.lists(st.one_of(FILL_SIZES, st.sampled_from(["integers", "standard_normal"])), max_size=6)


def _run(rng, steps, fill):
    """The outputs of ``steps`` on ``rng``, filling signs with ``fill``."""
    outputs = []
    for step in steps:
        if step == "integers":
            outputs.append(rng.integers(0, 2))
        elif step == "standard_normal":
            outputs.append(rng.standard_normal())
        else:
            outputs.append(fill(rng, step).tobytes())
    return outputs


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=STEPS)
def test_fill_sequences_are_dense_draws(bit_generator, seed, steps):
    chunked, dense = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    filled = _run(chunked, steps, lambda rng, size: streams.fill_signs(rng, np.empty(size)))
    drawn = _run(dense, steps, lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0)
    assert filled == drawn
    assert _state(chunked) == _state(dense)
