"""Mutation fuzzing of the file readers and of the CLI commands that read files.

Valid coefficient and field files are truncated, have columns swapped, cells
or whole columns blanked, lines dropped or repeated, and get NaN, 1e999,
booleans and wrong types injected. The readers must raise FormatError or
return valid data; `spheremodes synth`, `farfield` and `extract` must exit 0
or 1, and `equiv` 0, 1 or 2 (a valid mutant may make the routes disagree),
and none may end in an uncaught exception (a traceback).
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_coefficients
from spheremodes import CoefficientSet, Medium, make_grid, synthesize
from spheremodes.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_TOLERANCE, main
from spheremodes.fileio import (FIELD_COLUMNS, FormatError, read_coefficients,
                                read_field_file, write_coefficients, write_field_file)

FREQ = 299792458.0 / 4.0
CELL_TOKENS = ("", " ", "nan", "-nan", "inf", "1e999", "-1e999", "true", "false", "null",
               '"x"', "[]", "abc", "0", "-1", "1.5", "0x10", "99999999999")
JSON_VALUES = (float("nan"), float("inf"), float("-inf"), True, False, None, "x", "1.0",
               [], {}, [1.0], [1.0, 2.0, 3.0], [True, 0.0], 10 ** 400, 1e300, 1.5, -1, 0, 2)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Text of a valid l_max-2 coefficient file and of its field file, and a work directory."""
    work = tmp_path_factory.mktemp("fuzz")
    coeffs = random_coefficients(2, Medium.free_space(FREQ), np.random.default_rng(5))
    write_coefficients(work / "coeffs.json", coeffs, FREQ)
    e, h = synthesize(coeffs, 1.0, make_grid(2, 1.0))
    write_field_file(work / "field.csv", e, h, FREQ)
    return (work / "coeffs.json").read_text(), (work / "field.csv").read_text(), work


def _mutate_csv(data, text):
    """One mutation of a field file's lines."""
    lines = text.splitlines()
    table = [i for i, line in enumerate(lines) if not line.startswith("#")]
    width = len(lines[table[0]].split(","))
    op = data.draw(st.sampled_from(["swap", "swap-header", "cell", "sample-cell", "blank-column",
                                    "preamble", "drop", "repeat"]))
    if op in ("swap", "swap-header"):
        a, b = data.draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
        for i in table if op == "swap" else table[:1]:
            cells = lines[i].split(",")
            cells[a], cells[b] = cells[b], cells[a]
            lines[i] = ",".join(cells)
    elif op in ("cell", "sample-cell", "blank-column"):  # sample cells follow the 3 grid columns
        column = data.draw(st.integers(3 if op == "sample-cell" else 0, width - 1))
        rows = table[1:] if op == "blank-column" else [data.draw(st.sampled_from(table[1:]))]
        token = "" if op == "blank-column" else data.draw(st.sampled_from(CELL_TOKENS))
        for i in rows:
            cells = lines[i].split(",")
            cells[column] = token
            lines[i] = ",".join(cells)
    elif op == "preamble":
        i = data.draw(st.sampled_from([i for i in range(len(lines)) if i not in table]))
        lines[i] = lines[i].split("=")[0] + "=" + data.draw(st.sampled_from(CELL_TOKENS))
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if op == "drop" else [lines[i]] * 2
    return "\n".join(lines) + "\n"


def _mutate_json(data, text):
    """One mutation of a coefficient file: one value of the parsed document
    (or of its head: l_max, frequency and medium) replaced or deleted, or two
    leaf values swapped."""
    op = data.draw(st.sampled_from(["replace", "replace-head", "delete", "swap"]))
    doc = json.loads(text)
    slots = []  # (container, key) of every value in the document

    def walk(node):
        for key in (range(len(node)) if isinstance(node, list) else list(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    head = [(n, k) for n, k in slots if n is doc or n is doc.get("medium")]
    node, key = data.draw(st.sampled_from(head if op == "replace-head" else slots))
    if op.startswith("replace"):
        node[key] = data.draw(st.sampled_from(JSON_VALUES))
    elif op == "delete":
        del node[key]
    else:
        leaves = [(n, k) for n, k in slots if not isinstance(n[k], (dict, list))]
        (node, key), (other, other_key) = data.draw(st.lists(st.sampled_from(leaves),
                                                             min_size=2, max_size=2))
        node[key], other[other_key] = other[other_key], node[key]
    return json.dumps(doc)


def _mutant(data, text, mutate, path):
    """One or two mutations, then in one case of four a truncation, written to path."""
    for _ in range(data.draw(st.integers(1, 2))):
        text = mutate(data, text)
    if data.draw(st.integers(0, 3)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    path.write_text(text)
    return path


@FUZZ
@given(data=st.data(), normalize=st.booleans())
def test_mutated_coefficient_files(valid, data, normalize):
    coeff_text, _, work = valid
    path = _mutant(data, coeff_text, _mutate_json, work / "mutant.json")
    try:
        coeffs, frequency = read_coefficients(path)
    except FormatError:
        readable = False
    else:
        readable = True
        assert isinstance(coeffs, CoefficientSet) and coeffs.l_max >= 1
        assert np.isfinite(frequency) and frequency > 0.0
        doc = json.loads(path.read_text())  # numbers were read from JSON numbers only
        assert {type(x) for x in (doc["frequency_hz"], *doc["medium"].values())} <= {int, float}
    exits = (EXIT_OK, EXIT_INPUT_ERROR) if readable else (EXIT_INPUT_ERROR,)
    assert main(["synth", str(path), "--radius", "1.0", "--out", str(work / "synth.csv")]) in exits
    farfield = ["farfield", str(path), "--n-theta", "5", "--n-phi", "4",
                "--out", str(work / "pattern.csv")]
    assert main(farfield + (["--normalize"] if normalize else [])) in exits


@FUZZ
@given(data=st.data(), route=st.sampled_from(["radial", "tan-e", "tan-h"]))
def test_mutated_field_files(valid, data, route):
    _, field_text, work = valid
    path = _mutant(data, field_text, _mutate_csv, work / "mutant.csv")
    try:
        field = read_field_file(path)
    except FormatError:
        readable = False
    else:
        readable = True
        assert field.grid.n_nodes == field.grid.n_theta * field.grid.n_phi
        assert np.isfinite([field.medium.k, field.medium.z0, field.frequency_hz]).all()
        for name in FIELD_COLUMNS:
            column = field.columns[name]
            assert column is None or (column.shape == (field.grid.n_nodes,)
                                      and np.isfinite(column).all())
    code = main(["extract", str(path), "--route", route, "--out", str(work / "out.json")])
    assert code in ((EXIT_OK, EXIT_INPUT_ERROR) if readable else (EXIT_INPUT_ERROR,))
    code = main(["equiv", str(path)])
    assert code in ((EXIT_OK, EXIT_INPUT_ERROR, EXIT_TOLERANCE) if readable else (EXIT_INPUT_ERROR,))
