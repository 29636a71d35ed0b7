"""The three workloads: how inputs are built, what one operation is, and
how its output is checked.

Each operation is timed by the runner; everything here that checks an
output runs after the timed phase.  The first output of every distinct
input is checked in full; a repeat of that input passes when its
fingerprint (the serialized output) equals the checked one.

All calls into the package go through module attributes
(``diagram.parse_pd`` rather than a name bound at import), so that the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

import io
import json
import os
import statistics
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

from altknot import analysis, augmentation, cli, diagram, reduction, render, selfcheck, volume

import inputs

# Input counts and size ranges.  ``tiny`` is for the self-test.
SIZES = {
    "reduce": {"full": dict(n=48, lo=30, hi=80), "tiny": dict(n=4, lo=10, hi=16)},
    "augment-large": {"full": dict(n=64, lo=50, hi=110), "tiny": dict(n=3, lo=12, hi=16)},
    "cli-batch": {"full": dict(n_files=30, blocks=4), "tiny": dict(n_files=10, blocks=2, lo=8, hi=12)},
}


# Timed passes over the inputs; an input's time is its fastest repeat.
# The times of ``augment-large`` inputs differ widely from input to input,
# so their quantiles move with the seed unless there are many inputs
# (with 64 inputs and two passes the host's noise took over instead).  On
# a 2-CPU x86 VM with Python 3.11 the passes take about 20 seconds, 30 for
# ``augment-large``.
PASSES = {"reduce": 3, "augment-large": 3, "cli-batch": 5}


@dataclass(frozen=True)
class CorpusFile:
    """A ``cli-batch`` input written to disk, with the paths the CLI emits to."""

    spec: inputs.BatchFile
    path: str
    emit_pd: str
    emit_svg: str


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, dict, str], list]  # (seed, sizes, work dir) -> inputs
    op: Callable[[Any], Any]
    fingerprint: Callable[[Any], str]
    check: Callable[[Any, Any], list[str]]  # problems with a first output
    diagrams: Callable[[Any], int]  # diagrams one operation handles
    input_text: Callable[[Any], str]  # what the program is given, for the digest


# -- reduce -------------------------------------------------------------------

def reduce_op(item: inputs.Item):
    d = diagram.parse_pd(item.pd)
    r, trace = reduction.preprocess(d)
    flags = analysis.diagram_flags(r)
    cls = analysis.classify_edges(r)
    return trace, flags, cls, diagram.serialize_pd(r)


def reduce_check(item: inputs.Item, out) -> list[str]:
    trace, flags, _cls, text = out
    problems = []
    g = diagram.parse_pd(text)
    if not diagram.validate_diagram(g).valid:
        return ["reduced diagram does not validate"]
    check_flags = analysis.diagram_flags(g)
    if not (flags.reduced and flags.r2_reduced and check_flags.reduced and check_flags.r2_reduced):
        problems.append("output is not reduced and R2-reduced")
    if len(g.crossings) > item.crossings:
        problems.append("reduction added crossings")
    if analysis.twist_partition(g).t > analysis.twist_partition(diagram.parse_pd(item.pd)).t:
        problems.append("reduction raised the twist count")
    if trace.crossings_after != len(g.crossings):
        problems.append("trace disagrees with the output's crossing count")
    return problems


# -- augment-large --------------------------------------------------------------

def augment_op(item: inputs.Item):
    d = diagram.parse_pd(item.pd)
    res = augmentation.augment(d)
    report = volume.volume_report(res)
    return d, res, report, diagram.serialize_pd(res.g)


def augment_check(item: inputs.Item, out) -> list[str]:
    d, res, report, text = out
    problems = list(selfcheck.verify_augmentation(d, res))
    if (report["t_D"], report["t_G"]) != (res.t_D, res.t_G):
        problems.append("volume report disagrees with the twist counts")
    if len(diagram.parse_pd(text).crossings) != len(res.g.crossings):
        problems.append("serialized output does not round-trip")
    return problems


# -- cli-batch ------------------------------------------------------------------

def write_corpus(files: list[inputs.BatchFile], work: str) -> list[CorpusFile]:
    out = []
    for f in files:
        path = os.path.join(work, f"{f.name}.pd")
        with open(path, "w") as fh:
            fh.write(f.text)
        out.append(CorpusFile(f, path, os.path.join(work, f"{f.name}.out.pd"),
                              os.path.join(work, f"{f.name}.svg")))
    return out


def cli_op(f: CorpusFile):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["augment", f.path, "--emit-pd", f.emit_pd, "--emit-svg", f.emit_svg])
    return code, out.getvalue(), err.getvalue()


def _expected_record(block: inputs.Item) -> tuple[dict, Any, list[str]]:
    d = diagram.parse_pd(block.pd)
    res = augmentation.augment(d)
    rep = res.to_json()
    rep["name"] = block.name
    rep["volume"] = volume.volume_report(res)
    return json.loads(json.dumps(rep, sort_keys=True)), res, selfcheck.verify_augmentation(d, res)


def cli_check(f: CorpusFile, out) -> list[str]:
    """Per block: an eligible block needs its own result line, in input
    order, equal to an in-process ``augment`` that passes
    ``verify_augmentation``; an ineligible block needs an error record
    and exit code 1."""
    code, stdout, stderr = out
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if not f.spec.eligible:
        errors = [r for r in lines + [json.loads(x) for x in stderr.splitlines() if x.strip()]
                  if "error" in r]
        results = [r for r in lines if "error" not in r]
        if code != 1 or len(errors) != 1 or results:
            return [f"ineligible block: exit {code}, {len(errors)} error records, {len(results)} results"]
        return []
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    if len(lines) != len(f.spec.blocks):
        return [f"{len(lines)} result lines for {len(f.spec.blocks)} blocks"]
    problems = []
    last = None
    for block, got in zip(f.spec.blocks, lines):
        want, last, verify = _expected_record(block)
        problems += [f"{block.name}: {p}" for p in verify]
        if got != want:
            problems.append(f"{block.name}: result line differs from in-process augment")
    with open(f.emit_pd) as fh:
        emitted = fh.read()
    if emitted != "".join(f"# name: {r['name']}\n{r['pd_G']}\n\n" for r in lines):
        problems.append("emitted PD file differs from the result lines")
    with open(f.emit_svg) as fh:
        if fh.read() != render.render_svg(last.g):
            problems.append("emitted SVG differs from rendering the last result")
    return problems


def cli_fingerprint(out) -> str:
    code, stdout, _stderr = out
    return f"{code}\n{stdout}"


def _make_reduce(seed, sizes, work):
    return inputs.reduce_inputs(seed, **sizes)


def _make_large(seed, sizes, work):
    return inputs.large_inputs(seed, **sizes)


def _make_batch(seed, sizes, work):
    return write_corpus(inputs.batch_inputs(seed, **sizes), work)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduce", _make_reduce, reduce_op, lambda o: o[3], reduce_check,
                 lambda x: 1, lambda x: x.pd),
        Workload("augment-large", _make_large, augment_op, lambda o: o[3], augment_check,
                 lambda x: 1, lambda x: x.pd),
        Workload("cli-batch", _make_batch, cli_op, cli_fingerprint, cli_check,
                 lambda f: len(f.spec.blocks), lambda f: f.spec.text),
    )
}


# -- what the outputs say about the inputs -----------------------------------------

def items_of(name: str, xs: list) -> list[inputs.Item]:
    return [b for f in xs for b in f.spec.blocks] if name == "cli-batch" else list(xs)


def output_pds(name: str, out) -> list[str]:
    """The serialize_pd outputs of one operation, for the outputs digest."""
    if name == "cli-batch":
        code, stdout, _ = out
        return [json.loads(x).get("pd_G", "error") for x in stdout.splitlines() if x.strip()] or [f"exit {code}"]
    return [out[3]]


def augment_stats(name: str, out) -> list[tuple[int, int, int, int]]:
    """(merges, t_D, t_G, i_A_D) per augmented diagram in one operation."""
    if name == "augment-large":
        res = out[1]
        return [(len(res.merges), res.t_D, res.t_G, res.i_A_D)]
    if name == "cli-batch":
        recs = [json.loads(x) for x in out[1].splitlines() if x.strip()]
        return [(len(r["merges"]), r["t_D"], r["t_G"], r["i_A_D"]) for r in recs if "error" not in r]
    return []


def reduction_stats(out) -> tuple[int, int]:
    """(nugatory moves, R2 moves) made by one reduce operation."""
    kinds = [s.kind for s in out[0].steps]
    return kinds.count("nugatory"), kinds.count("r2")


def input_stats(name: str, xs: list) -> dict:
    """Crossing range, component mix and ineligible count of the inputs."""
    items = items_of(name, xs)
    crossings = [b.crossings for b in items]
    return {
        "count": len(xs),
        "diagrams": len(items),
        "ineligible": sum(1 for b in items if not b.eligible),
        "crossings_min": min(crossings),
        "crossings_mean": statistics.fmean(crossings),
        "crossings_max": max(crossings),
        "components": {str(k): v for k, v in sorted(Counter(b.components for b in items).items())},
    }


def output_stats(name: str, first: dict) -> dict:
    """Reduction moves, or merges and the paper's twist ratios, over the
    first output of every input."""
    outs = [first[i] for i in sorted(first)]
    if name == "reduce":
        moves = [reduction_stats(o) for o in outs]
        return {"nugatory_moves": sum(m[0] for m in moves), "r2_moves": sum(m[1] for m in moves)}
    rows = [r for o in outs for r in augment_stats(name, o)]
    return {
        "augmented": len(rows),
        "merges": sum(r[0] for r in rows),
        "merges_max": max((r[0] for r in rows), default=0),
        "t_G_over_t_D": statistics.fmean(r[2] / r[1] for r in rows) if rows else 0.0,
        "i_A_D_over_t_D": statistics.fmean(r[3] / r[1] for r in rows) if rows else 0.0,
    }
