"""Fuzz the four readers of outside input: each returns or raises InvalidInputError.

Integers are drawn from a small range so that no example allocates a large
array; ``max_examples`` is fixed so that the run time stays bounded.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specluster import InvalidInputError, SweepSpec
from specluster.cli import _model_from_file
from specluster.harness import build_cell
from specluster.models import (
    BSBM_KEYS,
    MIXTURE_KEYS,
    load_dataset,
    read_matrix_market,
    write_matrix_market,
)

FUZZ = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

small_ints = st.integers(-2, 40)
scalars = (
    st.none()
    | st.booleans()
    | small_ints
    | st.floats(-2, 40)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
int_like = small_ints | st.floats(-2, 40) | small_ints.map(str) | json_values
float_like = st.floats(0, 1) | st.floats(0, 1).map(str) | json_values
int_lists = st.lists(int_like, max_size=8) | st.lists(st.integers(-1, 3), max_size=8) | json_values

# Every field any model spec reads, with values of any shape.
model_fields = {
    "kind": st.sampled_from(["bsbm", "mixture"]) | json_values,
    "m": int_like,
    "n": int_like,
    "k": int_like,
    "p": float_like,
    "q": float_like,
    "left_sizes": int_lists,
    "right_assignment": int_lists,
    "means": st.lists(st.lists(st.floats(0, 1), min_size=1, max_size=4), max_size=3)
    | json_values,
    "weights": st.lists(st.floats(0, 1) | st.just(0.5), max_size=3) | json_values,
    "sigma_sq": float_like,
}


@st.composite
def valid_models(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 6))
    if draw(st.booleans()):
        spec = {"kind": "bsbm", "m": draw(st.integers(k, 12)), "n": n, "k": k}
        spec["p"], spec["q"] = draw(st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)))
        if draw(st.booleans()):
            spec["left_sizes"] = [1] * (k - 1) + [spec["m"] - k + 1]
            spec["right_assignment"] = [j % k for j in range(n)]
        return spec
    row = st.lists(st.floats(0, 1), min_size=n, max_size=n)
    means = draw(st.lists(row, min_size=k, max_size=k))
    return {"kind": "mixture", "means": means, "weights": [1 / k] * k, "m": 2 * k}


@st.composite
def mutated_models(draw):
    """A valid model spec with up to two fields replaced and up to two deleted."""
    spec = draw(valid_models())
    for key in draw(st.lists(st.sampled_from(sorted(model_fields)), max_size=2)):
        spec[key] = draw(model_fields[key])
    for key in draw(st.lists(st.sampled_from(sorted(spec)), max_size=2)):
        spec.pop(key, None)
    return spec


model_specs = mutated_models() | json_values


def sidecar_specs(keys):
    """A mutated model spec cut to the sidecar's ``keys`` (it holds no
    ``kind``), so that most examples get past the unknown-key check."""
    return mutated_models().map(lambda spec: {k: spec[k] for k in spec if k in keys}) | json_values


def json_files(documents):
    """File bytes: a JSON dump of a drawn document, or arbitrary bytes."""
    return documents.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=64)


def expect_return_or_invalid(read, *args):
    try:
        read(*args)
    except InvalidInputError:
        pass


mtx_lines = st.lists(
    st.sampled_from(["0", "1", "0.5", "-1", "x", "nan", "1e999", "% c", "", " ", "1 0"]),
    max_size=14,
)


@FUZZ
@given(
    header=st.sampled_from(
        [
            "%%MatrixMarket matrix array integer general",
            "%%MatrixMarket matrix array real general",
            "%%MatrixMarket matrix coordinate integer general",
            "%%MatrixMarket",
            "garbage",
        ]
    ),
    size=st.tuples(small_ints, small_ints).map(lambda mn: f"{mn[0]} {mn[1]}")
    | st.text(max_size=6),
    body=mtx_lines,
    raw=st.none() | st.binary(max_size=64),
)
def test_read_matrix_market(tmp_path, header, size, body, raw):
    path = tmp_path / "a.mtx"
    path.write_bytes(raw if raw is not None else "\n".join([header, size, *body]).encode())
    expect_return_or_invalid(read_matrix_market, path)


@st.composite
def one_byte_off_bodies(draw):
    """A 0/1 matrix and one (index, byte) change to the body the writer makes
    of it: ``m*n`` lines of one digit and a newline, column-major."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    bits = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m * n, max_size=m * n))
    index = draw(st.integers(0, 2 * m * n - 1))
    byte = draw(st.integers(0, 255) | st.sampled_from(b"0189/: \t\r\n%x\xb0"))
    return np.array(bits).reshape(m, n), index, byte


@FUZZ
@given(case=one_byte_off_bodies())
def test_read_matrix_market_one_byte_off(tmp_path, case):
    """A digit changed to a digit is read as the new digit and a newline
    changed to a carriage return still ends the line; any other change is
    rejected, except at the last newline, where a byte such as a space or a
    digit can still leave a valid last entry."""
    matrix, index, byte = case
    path = tmp_path / "d.mtx"
    write_matrix_market(path, matrix)
    data = bytearray(path.read_bytes())
    data[len(data) - 2 * matrix.size + index] = byte
    path.write_bytes(bytes(data))
    entry, on_newline = divmod(index, 2)
    expected = matrix.T.copy()  # column-major entry order
    if on_newline and byte in b"\r\n":
        pass
    elif not on_newline and ord("0") <= byte <= ord("9"):
        expected.flat[entry] = byte - ord("0")
    elif index == 2 * matrix.size - 1:
        expect_return_or_invalid(read_matrix_market, path)
        return
    else:
        with pytest.raises(InvalidInputError):
            read_matrix_market(path)
        return
    assert np.array_equal(read_matrix_market(path), expected.T)


@FUZZ
@given(
    sidecar=json_files(
        st.fixed_dictionaries(
            {},
            optional={
                "seed": json_values,
                "truth": int_lists,
                "model": sidecar_specs(MIXTURE_KEYS),
                "bsbm": sidecar_specs(BSBM_KEYS),
            },
        )
        | json_values
    )
)
def test_load_dataset_sidecar(tmp_path, sidecar):
    write_matrix_market(tmp_path / "d.mtx", np.eye(4, 3))
    (tmp_path / "d.json").write_bytes(sidecar)
    expect_return_or_invalid(load_dataset, tmp_path / "d")


def _spec_then_cells(path):
    spec = SweepSpec.from_json(path)
    for params in spec.cells():
        expect_return_or_invalid(build_cell, spec.family, params)


@FUZZ
@given(
    spec=json_files(
        st.fixed_dictionaries(
            {},
            optional={
                "family": st.sampled_from(["bsbm", "general"]) | json_values,
                "axes": st.dictionaries(
                    st.sampled_from(sorted(model_fields)),
                    st.lists(json_values | int_like, min_size=1, max_size=3),
                    max_size=2,
                )
                | json_values,
                "fixed": model_specs,
                "trials_per_cell": int_like,
                "base_seed": int_like,
                "diagnostics": st.lists(st.sampled_from(["overlap", "margins", "x"])) | json_values,
                "margin_draws": int_like,
            },
        )
        | json_values
    )
)
def test_sweep_spec_and_cells(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_bytes(spec)
    expect_return_or_invalid(_spec_then_cells, path)


@FUZZ
@given(model=json_files(model_specs))
def test_model_file(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_bytes(model)
    expect_return_or_invalid(_model_from_file, path)
