"""Property tests of the SMAT matrix file: ``SampleMatrix.save`` then
``load`` gives back the values and the seed record bit for bit, and a
truncated file or one with bytes appended raises ``InvalidInputError`` and
nothing else."""

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lminlab import spectrum as sp  # noqa: E402
from lminlab.errors import InvalidInputError  # noqa: E402
from lminlab.streams import SeedRecord  # noqa: E402

SEED_FIELDS = st.integers(0, 2**64 - 1)


@st.composite
def matrices(draw, max_rows=12, max_cols=6):
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols)))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    record = SeedRecord(draw(SEED_FIELDS), draw(SEED_FIELDS), draw(SEED_FIELDS))
    return sp.SampleMatrix(N=shape[0], n=shape[1], values=values, seed=record)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(m=matrices())
def test_save_then_load_is_bit_identical(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("smat") / "m.bin"
    m.save(path)
    loaded = sp.SampleMatrix.load(path)
    assert (loaded.N, loaded.n, loaded.seed) == (m.N, m.n, m.seed)
    assert loaded.values.dtype == np.float64
    assert loaded.values.tobytes() == m.values.tobytes()  # -0.0 and subnormals included


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(m=matrices(max_rows=4, max_cols=3), extra=st.binary(min_size=1, max_size=16))
def test_truncated_or_extended_file_raises_input_error(tmp_path_factory, m, extra):
    directory = tmp_path_factory.mktemp("smat")
    path = directory / "m.bin"
    m.save(path)
    blob = path.read_bytes()
    bad = directory / "bad.bin"
    for mangled in [blob[:size] for size in range(len(blob))] + [blob + extra]:
        bad.write_bytes(mangled)
        with pytest.raises(InvalidInputError):
            sp.SampleMatrix.load(bad)
