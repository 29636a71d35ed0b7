"""Malformed input only ever raises the documented DiagramError family.

PD text goes through ``parse_pd -> analysis_report -> preprocess ->
augment``; every stage may refuse its input, but only with a
``DiagramError`` subclass, and whatever parses must survive a
serialize/parse round trip.  Purely random records rarely get past the
parser, so the texts mix random records with mutated braid closures and
mutated shadows that are no braid closure (``conftest.shadow_diagrams``).
A property that fails must be reported as a failure, with its example,
under the warnings-as-errors setting of ``pyproject.toml``.

``parse_pd`` decides syntax by one grammar match and assembles on dart
lists; texts over the PD alphabet, with whitespace and look-alike
characters, check it against the record loop and the tuple-walk
assembler (``conftest.oracle_parse``).
"""

from __future__ import annotations

import re
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altknot import (
    Crossing,
    Diagram,
    Edge,
    analysis_report,
    augment,
    diagram,
    parse_pd,
    preprocess,
    serialize_pd,
)
from altknot.errors import DiagramError, PDSyntaxError, PreconditionError
from altknot.generate import braid_closure

from conftest import assert_parse_is_the_oracle, assert_twist_partition_is_the_oracle, same_map, shadow_diagrams

IDS = st.integers(min_value=1, max_value=14)
X_RECORD = st.tuples(IDS, IDS, IDS, IDS).map(lambda t: "X(%d,%d,%d,%d)" % t)
O_RECORD = IDS.map(lambda k: f"O({k})")
RANDOM_TEXT = st.lists(st.one_of(X_RECORD, X_RECORD, O_RECORD), min_size=1, max_size=8).map(" ".join)
BRAID_WORD = st.lists(st.sampled_from([i for i in range(-3, 4) if i != 0]), min_size=8, max_size=30)
# ASCII whitespace, the line breaks and spaces that only str.splitlines or
# str.isspace know, and a byte-order mark, which is neither
SPACES = " \t\n\r\f\v\x1c\u00a0\u2028\ufeff"
PD_CHARS = "XO(),-+_#0123456789\u0661" + SPACES
JUNK = st.sampled_from(["X(1,2)", "O(0)", "X(1,-2,3,4)", "Y(3)", "X(a,b,c,d)", "7", "X(1,2,3,4"])


def _edit_records(draw, records: list[str]) -> str:
    """The PD records ``records`` with a few random edits, as text."""
    for _ in range(draw(st.integers(0, 3))):
        if not records:
            break
        k = draw(st.integers(0, len(records) - 1))
        move = draw(st.sampled_from(["retarget", "swap", "rotate", "delete", "duplicate", "junk"]))
        if move in ("retarget", "swap", "rotate") and re.fullmatch(r"X\(\d+,\d+,\d+,\d+\)", records[k]):
            ids = [int(x) for x in re.findall(r"\d+", records[k])]
            if move == "retarget":
                ids[draw(st.integers(0, 3))] = draw(IDS)
            elif move == "swap":
                i, j = draw(st.permutations(range(4)))[:2]
                ids[i], ids[j] = ids[j], ids[i]
            else:
                ids = ids[1:] + ids[:1]  # the other strand passes over
            records[k] = "X(%d,%d,%d,%d)" % tuple(ids)
        elif move == "delete":
            del records[k]
        elif move == "duplicate":
            records.insert(k, records[k])
        elif move == "junk":
            records.insert(k, draw(JUNK))
    return " ".join(records)


@st.composite
def mutated_closures(draw):
    """The PD text of a braid closure with a few random edits."""
    return _edit_records(draw, serialize_pd(braid_closure(draw(BRAID_WORD))).split())


@st.composite
def mutated_shadows(draw):
    """The PD text of a drawn shadow, no braid closure, with a few
    random edits."""
    seed = draw(st.integers(0, 2**32 - 1))
    return _edit_records(draw, serialize_pd(shadow_diagrams(1, seed)[0]).split())


@st.composite
def spelled_closures(draw):
    """The PD text of a braid closure, with loops and a few random edits,
    spelled with drawn padding and leading zeros around each id, drawn
    separators and comments between records, and perhaps one stray
    character of the PD alphabet.  The padding is what the record loop
    reads as ASCII whitespace once comments are stripped."""
    records = serialize_pd(braid_closure(draw(BRAID_WORD))).split()
    records += [f"O({k})" for k in draw(st.lists(st.integers(1, 40), max_size=2))]
    text = _edit_records(draw, records)
    between = st.sampled_from([" ", "\n", "\r\n", "\u2028", "\u00a0", "\x1c", " # note\n"])
    text = re.sub(" ", lambda m: draw(between), text)
    pad = st.text(" \t\n\r\f\v\x1c\u2028", max_size=2)
    text = re.sub(r"[0-9]+", lambda m: draw(pad) + "0" * draw(st.integers(0, 2)) + m.group() + draw(pad), text)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PD_CHARS)) + text[at:]
    return text


def _run_pipeline(text: str) -> None:
    try:
        d = parse_pd(text)
    except DiagramError:
        return
    assert same_map(parse_pd(serialize_pd(d)), d)
    assert_twist_partition_is_the_oracle(d)
    with suppress(DiagramError):
        analysis_report(d)
    try:
        reduced, _trace = preprocess(d)
    except DiagramError:
        return
    with suppress(DiagramError):
        augment(reduced)


@settings(deadline=None, max_examples=150)
@given(RANDOM_TEXT)
def test_random_records_raise_only_diagram_errors(text):
    _run_pipeline(text)


@settings(deadline=None, max_examples=200)
@given(mutated_closures())
def test_mutated_closures_raise_only_diagram_errors(text):
    _run_pipeline(text)


@settings(deadline=None, max_examples=100)
@given(mutated_shadows())
def test_mutated_shadows_raise_only_diagram_errors(text):
    _run_pipeline(text)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(PD_CHARS, max_size=40), spelled_closures()))
def test_parse_pd_is_the_record_loop_and_the_oracle_assembler(text):
    # the grammar accepts exactly the text the record loop accepts, so the
    # loop only words refusals; parse_pd then gives the oracle's map, or
    # its refusal in the same type and words
    clean = diagram._strip_comments(text)
    try:
        diagram._read_records(clean)
    except PDSyntaxError:
        accepted = False
    else:
        accepted = True
    assert (diagram._PD.fullmatch(clean) is not None) == accepted
    assert_parse_is_the_oracle(text)


def test_invalid_hand_built_diagram_refused_by_preprocess():
    # crossing 0 names edges 2-4 that do not exist, and edge 1 uses only
    # two of its slots
    d = Diagram(
        {0: Crossing(0, (1, 2, 3, 4))},
        {1: Edge(1, ((0, 0), (0, 2)), 0)},
    )
    with pytest.raises(PreconditionError) as err:
        preprocess(d)
    assert err.value.failed_flag == "valid"


def test_a_failing_property_is_reported(tmp_path):
    # hypothesis imports libcst to report a failing example; with every
    # warning an error, a warning raised by that import would stop the
    # run with an internal error (exit 3) and report no later test
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(config), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout, run.stdout
