"""Malformed input only ever raises the documented DiagramError family.

PD text goes through ``parse_pd -> analysis_report -> preprocess ->
augment``; every stage may refuse its input, but only with a
``DiagramError`` subclass, and whatever parses must survive a
serialize/parse round trip.  Purely random records rarely get past the
parser, so the texts mix random records with mutated braid closures and
mutated shadows that are no braid closure (``conftest.shadow_diagrams``).
"""

from __future__ import annotations

import re
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altknot import (
    Crossing,
    Diagram,
    Edge,
    analysis_report,
    augment,
    parse_pd,
    preprocess,
    serialize_pd,
)
from altknot.errors import DiagramError, PreconditionError
from altknot.generate import braid_closure

from conftest import same_map, shadow_diagrams

IDS = st.integers(min_value=1, max_value=14)
X_RECORD = st.tuples(IDS, IDS, IDS, IDS).map(lambda t: "X(%d,%d,%d,%d)" % t)
O_RECORD = IDS.map(lambda k: f"O({k})")
RANDOM_TEXT = st.lists(st.one_of(X_RECORD, X_RECORD, O_RECORD), min_size=1, max_size=8).map(" ".join)
BRAID_WORD = st.lists(st.sampled_from([i for i in range(-3, 4) if i != 0]), min_size=8, max_size=30)
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


def _run_pipeline(text: str) -> None:
    try:
        d = parse_pd(text)
    except DiagramError:
        return
    assert same_map(parse_pd(serialize_pd(d)), d)
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


def test_invalid_hand_built_diagram_refused_by_preprocess():
    # crossing 0 names edges 2-4 that do not exist, and edge 1 uses only
    # two of its slots
    d = Diagram(
        {0: Crossing(0, (1, 2, 3, 4))},
        {1: Edge(1, ((0, 0), (0, 2)), 1, 0)},
    )
    with pytest.raises(PreconditionError) as err:
        preprocess(d)
    assert err.value.failed_flag == "valid"
