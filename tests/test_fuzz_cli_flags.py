"""Fuzzing of the CLI's numeric flags.

Every numeric flag of `synth`, `extract`, `equiv`, `farfield` and `dipole`
is either left at its default or set to a bounded integer (counts and
degrees in [-3, 40], too small to allocate much) or to one of a fixed set of
awkward floats. No exception may escape `main`; exit 1 must come with an
`error:` line on stderr and must leave no output file behind.
"""

import shutil

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_coefficients
from spheremodes import Medium, make_grid, synthesize
from spheremodes.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_TOLERANCE, main
from spheremodes.fileio import write_coefficients, write_field_file

FREQ = 299792458.0 / 4.0
INTS = st.integers(-3, 40).map(str)
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "1e300"])
# command -> (its numeric flags and their values, whether it may exit 2)
FLAGS = {
    "synth": ({"--radius": FLOATS, "--grid-lmax": INTS}, False),
    "extract": ({"--lmax": INTS}, False),
    "equiv": ({"--lmax": INTS, "--tol": FLOATS}, True),
    "farfield": ({"--n-theta": INTS, "--n-phi": INTS}, False),
    "dipole": ({"--current": FLOATS, "--freq": FLOATS, "--grid-lmax": INTS,
                "--n-theta": INTS, "--tol": FLOATS}, True),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags, may_exceed = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True))
    return command, [f"{flag}={draw(flags[flag])}" for flag in chosen], may_exceed


def _inputs(work):
    coeffs = random_coefficients(2, Medium.free_space(FREQ), np.random.default_rng(3))
    write_coefficients(work / "coeffs.json", coeffs, FREQ)
    e, h = synthesize(coeffs, 1.0, make_grid(2, 1.0))
    write_field_file(work / "field.csv", e, h, FREQ)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
def test_numeric_flags(tmp_path, capsys, invocation):
    command, flags, may_exceed = invocation
    if not (tmp_path / "field.csv").exists():
        _inputs(tmp_path)
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    args = {
        "synth": [str(tmp_path / "coeffs.json"), "--out", str(out / "field.csv")],
        "extract": [str(tmp_path / "field.csv"), "--route", "tan-e",
                    "--out", str(out / "coeffs.json")],
        "equiv": [str(tmp_path / "field.csv")],
        "farfield": [str(tmp_path / "coeffs.json"), "--out", str(out / "pattern.csv")],
        "dipole": ["--out-prefix", str(out / "d")],
    }[command]
    if command == "synth" and not any(f.startswith("--radius=") for f in flags):
        args += ["--radius", "1.0"]
    capsys.readouterr()
    code = main([command, *args, *flags])
    err = capsys.readouterr().err
    assert code in ((EXIT_OK, EXIT_INPUT_ERROR, EXIT_TOLERANCE) if may_exceed
                    else (EXIT_OK, EXIT_INPUT_ERROR))
    if code == EXIT_INPUT_ERROR:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
        assert not list(out.iterdir())
