"""float_text.join against repr, byte for byte, and the CSV writer built on it."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewbody
from fewbody import cli, float_text
from fewbody.density_maps import DensityGrid, GridSpec

LAYOUT_BOUNDARIES = [1e-5, 1e-4, 1e15, 1e16, 1e17]
SPECIALS = [
    *(10.0**k for k in range(-323, 309)),
    *(2.0**k for k in range(-1074, 1024)),
    5e-324,
    1.7976931348623157e308,
    9007199254740993.0,  # 2**53 + 1, read as 2**53
    *LAYOUT_BOUNDARIES,
]


def _repr_text(values, separators: bytes) -> bytes:
    """The reference: repr(float(v)) of each value and its separator."""
    return b"".join(
        repr(float(v)).encode() + separators[i % len(separators) : i % len(separators) + 1]
        for i, v in enumerate(np.asarray(values, dtype=np.float64).ravel().tolist())
    )


def _join(values, separators: bytes = b",") -> bytes:
    values = np.asarray(values, dtype=np.float64)
    pattern = np.frombuffer(separators, np.uint8)
    return float_text.join(values, pattern[np.arange(values.size) % len(pattern)])


def _neighbours(value: float) -> list[float]:
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


def test_specials_and_their_neighbours_match_repr() -> None:
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        values = [w for v in SPECIALS for w in _neighbours(v)]
    values += [-v for v in values]
    assert _join(values) == _repr_text(values, b",")


def test_nan_infinities_and_signed_zeros_match_repr() -> None:
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -0.0, np.nan]
    assert _join(values, b",\n") == b"nan,inf\n-inf,0.0\n-0.0,1.0\n-0.0,nan\n"


def test_rounding_ties_take_repr() -> None:
    # k / 2**17 has 18 significant digits ending in 5: its 17-digit
    # rounding is a tie that repr breaks
    values = [k / 2**17 for k in range(131073, 131329, 2)]
    assert _join(values, b"\n") == _repr_text(values, b"\n")


def test_random_bit_patterns_match_repr() -> None:
    bits = np.random.default_rng(20261019).integers(
        -(2**63), 2**63 - 1, size=200_000, dtype=np.int64, endpoint=True
    )
    values = bits.view(np.float64)
    assert _join(values, b",,\n") == _repr_text(values, b",,\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=64))
def test_any_floats_match_repr(values: list[float]) -> None:
    assert _join(values, b";\n") == _repr_text(values, b";\n")


def test_join_needs_one_nonzero_separator_per_value() -> None:
    with pytest.raises(ValueError, match="nonzero separator"):
        float_text.join(np.ones(3), np.full(2, ord(","), np.uint8))
    with pytest.raises(ValueError, match="nonzero separator"):
        float_text.join(np.ones(2), np.array([ord(","), 0], np.uint8))


@pytest.mark.parametrize("chunk", [1, 7, cli.CSV_CHUNK], ids=["1", "7", "default"])
def test_write_csv_bytes_do_not_depend_on_the_chunk_size(
    chunk: int, tmp_path: Path, monkeypatch
) -> None:
    nx, ny = 33, 17
    spec = GridSpec((-2.0, 3.0), (-1.0, 1.5), (nx, ny))
    rng = np.random.default_rng(7)
    scalar = rng.exponential(size=(nx, ny)) * 10.0 ** rng.integers(-7, 3, size=(nx, ny))
    scalar[0, 0], scalar[-1, -1], scalar[3, 4] = -0.0, 5e-324, 131073 / 2**17
    flux = rng.normal(size=(nx, ny, 2))
    header = "# -2.0 3.0 -1.0 1.5 33 17\n".encode()
    monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
    cli._write_csv(DensityGrid(spec, scalar), tmp_path / "scalar.csv")
    separators = b"," * (ny - 1) + b"\n"
    assert (tmp_path / "scalar.csv").read_bytes() == header + _repr_text(scalar, separators)
    cli._write_csv(DensityGrid(spec, flux), tmp_path / "flux.csv")
    assert (tmp_path / "flux.csv").read_bytes() == header + _repr_text(flux, b",\n")


def test_importing_the_cli_builds_no_table() -> None:
    # the tables take ~10 ms to build: the first join pays for them, not import
    code = (
        "import fewbody.cli\n"
        "from fewbody import float_text\n"
        "print(float_text._tables.cache_info().currsize)\n"
    )
    path = [str(Path(fewbody.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "0\n")


def test_power_tables_match_the_fraction_construction() -> None:
    # the reference rounds each exact power of ten and its remainder through Fraction
    reference = []
    for k in float_text.POWERS:
        exact = Fraction(10) ** k
        hi = float(exact)
        high = hi * float_text.SPLIT - (hi * float_text.SPLIT - hi)
        reference.append((hi, high, hi - high, float(exact - Fraction(hi))))
    tables = float_text._tables()
    built = np.stack([tables.hi, tables.hi_high, tables.hi_low, tables.lo], axis=1)
    assert built.view(np.uint64).tolist() == np.array(reference).view(np.uint64).tolist()
