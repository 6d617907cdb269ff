"""Property test of the small-ball statistics: ``smallball._marginals``,
which walks the samples in row blocks, gives the tail fractions and the
means of |<X_i, d>| of the whole projection matrix |samples @ dirs.T| bit
for bit, whatever the block size.

Each direction is a multiple of a coordinate vector, so every projection is
one rounded product and BLAS gives it the same bits for any block shape
(for a general direction a product of a few rows may round its dot
products differently from one of many).  The sums are what is tested: they
must add the rows one at a time in sample order.  There are at least two
directions, because numpy sums a single column pairwise, in the streamed
blocks and in the whole matrix alike, so that case agrees only to round-off.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lminlab import smallball as sb  # noqa: E402

VALUES = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def problems(draw, max_rows=40, max_cols=5, max_dirs=9):
    n = draw(st.integers(1, max_cols))
    samples = draw(hnp.arrays(np.float64, (draw(st.integers(1, max_rows)), n), elements=VALUES))
    D = draw(st.integers(2, max_dirs))
    dirs = np.zeros((D, n))
    dirs[np.arange(D), draw(hnp.arrays(np.intp, D, elements=st.integers(0, n - 1)))] = draw(
        hnp.arrays(np.float64, D, elements=VALUES)
    )
    us = draw(st.lists(st.floats(0.0, 1e3), max_size=4))
    return samples, dirs, us


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(problem=problems(), block=st.integers(1, 64))
def test_streamed_statistics_equal_dense_ones(problem, block):
    samples, dirs, us = problem
    # blocks of block // len(dirs) rows (at least 1), the last one ragged
    with mock.patch.object(sb, "_BLOCK_ELEMENTS", block):
        streamed = sb._marginals(samples, dirs, us, l1=True)
    proj = np.abs(samples @ dirs.T)
    tail = np.array([(proj >= u).mean(axis=0) for u in us]).reshape(len(us), len(dirs))
    assert streamed.tail.tobytes() == tail.tobytes()
    assert streamed.l1.tobytes() == proj.mean(axis=0).tobytes()
