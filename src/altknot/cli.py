"""Command-line interface.

Commands: ``analyze``, ``reduce``, ``augment``, ``bounds``, ``gen``,
``selfcheck``, ``render``.  Files may hold one diagram or a corpus of
blank-line-separated PD blocks (optionally titled with ``# name:``
comments), except that ``render`` takes a file of exactly one block;
batch output is one JSON line per block in input order.  A
block that fails does not stop the batch: it gets an error record on
stderr carrying its name (and, for exit code 3, its PD text), and the
command exits with the worst code of its blocks.

Exit codes: 0 success, 1 precondition failure, 2 input or I/O error,
3 internal guarantee violation.  Machine-readable error objects go to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .analysis import analysis_report
from .augmentation import augment
from .diagram import Diagram, parse_pd, serialize_pd
from .errors import DiagramError, PDSyntaxError, exit_code_for
from .generate import random_knot_diagram
from .reduction import preprocess
from .render import render_svg
from .selfcheck import run_selfcheck
from .volume import augmented_volume_bounds, constants, twist_volume_bounds, volume_report

_DEFAULT_SEED = 20240900


def _split_corpus(text: str) -> list[tuple[str, str]]:
    """(name, pd text) per blank-line-separated block.  A title after PD
    text closes the block being read and names the next one.  A title
    followed by another title, or by the end of the file, before any PD
    text is a block of its own with empty text, which ``_parse_block``
    refuses."""
    blocks = []
    name = None
    buf: list[str] = []
    for line in text.splitlines() + [""]:
        stripped = line.strip()
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.lower().startswith("name:"):
                if buf or name is not None:
                    blocks.append((name or f"diagram-{len(blocks)}", "\n".join(buf)))
                    buf = []
                name = comment[5:].strip()
            continue
        if not stripped:
            if buf:
                blocks.append((name or f"diagram-{len(blocks)}", "\n".join(buf)))
                buf, name = [], None
            continue
        buf.append(line)
    if name is not None:
        blocks.append((name or f"diagram-{len(blocks)}", ""))
    return blocks


def _parse_block(text: str) -> Diagram:
    """``parse_pd`` of one block's text; PDSyntaxError when a titled
    block holds none."""
    if not text:
        raise PDSyntaxError("titled block holds no PD text")
    return parse_pd(text)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")


def _error_record(
    exc: DiagramError, code: int, name: str | None = None, pd: str | None = None
) -> None:
    err = {} if name is None else {"name": name}
    err.update(error=type(exc).__name__, message=str(exc), exit=code)
    if pd is not None:
        err["pd"] = pd
    print(json.dumps(err), file=sys.stderr)


def _run_blocks(blocks, worker) -> tuple[list, int]:
    """Run ``worker`` on each (name, text) block in input order.

    A block whose worker raises a DiagramError gets an error record on
    stderr and the batch goes on; an internal-guarantee failure (exit 3)
    also carries the block's PD text, so it can be reproduced from the
    record alone.  Returns the outputs of the blocks that succeeded, in
    input order, and the worst exit code among the failed ones (0 when
    none failed)."""
    outputs, worst = [], 0
    for name, text in blocks:
        try:
            outputs.append(worker((name, text)))
        except DiagramError as exc:
            code = exit_code_for(exc)
            _error_record(exc, code, name=name, pd=text if code == 3 else None)
            worst = max(worst, code)
    return outputs, worst


def _cmd_analyze(args) -> int:
    blocks = _read_blocks(args.file)

    def work(block):
        name, text = block
        rep = analysis_report(_parse_block(text))
        rep["name"] = name
        return rep

    outputs, code = _run_blocks(blocks, work)
    for rep in outputs:
        _emit(rep, args.format)
    return code


def _cmd_reduce(args) -> int:
    blocks = _read_blocks(args.file)

    def work(block):
        name, text = block
        d, trace = preprocess(_parse_block(text))
        return {"name": name, "pd": serialize_pd(d), "trace": trace.to_json()}

    outputs, code = _run_blocks(blocks, work)
    for rep in outputs:
        _emit(rep, args.format)
    return code


def _cmd_augment(args) -> int:
    blocks = _read_blocks(args.file)

    def work(block):
        name, text = block
        res = augment(_parse_block(text))
        rep = res.to_json()
        rep["name"] = name
        rep["volume"] = volume_report(res)
        return rep, res

    outputs, code = _run_blocks(blocks, work)
    for rep, res in outputs:
        _emit(rep, args.format)
    # the emitted files cover the blocks that succeeded; with none, no file
    # is written
    if args.emit_pd and outputs:
        with open(args.emit_pd, "w") as fh:
            for rep, _res in outputs:
                fh.write(f"# name: {rep['name']}\n{rep['pd_G']}\n\n")
    if args.emit_svg and outputs:
        _rep, res = outputs[-1]
        with open(args.emit_svg, "w") as fh:
            fh.write(render_svg(res.g))
    return code


def _cmd_bounds(args) -> int:
    w = twist_volume_bounds(args.twist)
    upper, lower = augmented_volume_bounds(args.twist, args.claim_min_twist)
    out = {
        "v3": constants().v3,
        "t": args.twist,
        "lower_raw": w.lower_raw,
        "lower": w.lower,
        "upper": w.upper,
        "altvol_upper": upper.upper,
    }
    if lower is not None:
        out["altvol_lower"] = lower.lower
    _emit(out, args.format)
    return 0


def _cmd_gen(args) -> int:
    d, trace = random_knot_diagram(
        args.seed, args.letters, args.flips, max_crossings=args.max_crossings
    )
    out = {
        "seed": args.seed,
        "pd": serialize_pd(d),
        "crossings": len(d.crossings),
        "reduction_steps": len(trace.steps),
    }
    _emit(out, args.format)
    return 0


def _cmd_selfcheck(args) -> int:
    def progress(case):
        if args.format == "text":
            status = "ok" if case.ok else "FAIL"
            print(
                f"seed {case.seed}: {case.crossings} crossings, "
                f"t {case.t_d} -> {case.t_g}, {case.seconds * 1e3:.0f} ms [{status}]"
            )

    report = run_selfcheck(args.cases, seed=args.seed, progress=progress)
    _emit(report, args.format)
    return 0 if report["passed"] == report["cases"] else 1


def _cmd_render(args) -> int:
    blocks = _read_blocks(args.file)
    if len(blocks) != 1:
        raise PDSyntaxError(f"render takes one diagram; the file holds {len(blocks)} blocks")
    svg = render_svg(_parse_block(blocks[0][1]))
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def _at_least(low: int):
    """An argparse type: an integer no less than ``low``."""

    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {n}")
        return n

    return count


def _read_blocks(path: str) -> list[tuple[str, str]]:
    """The (name, pd text) blocks of the file at ``path``, decoded as
    UTF-8 with one leading byte-order mark dropped; PDSyntaxError naming
    the byte offset of undecodable input in the file.  (The "utf-8-sig"
    codec would count that offset from after the mark.)"""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PDSyntaxError(f"input is not UTF-8: byte {exc.start} is {data[exc.start]:#04x}") from None
    return _split_corpus(text.removeprefix("\ufeff"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="altknot",
        description="Alternating augmentations of knot diagrams with "
        "certified twist-number and volume bounds.",
    )
    p.add_argument("--version", action="version", version=f"altknot {__version__}")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="diagram predicates and twist statistics")
    a.add_argument("file")
    a.set_defaults(func=_cmd_analyze)

    r = sub.add_parser("reduce", help="remove nugatory crossings and R2 bigons")
    r.add_argument("file")
    r.set_defaults(func=_cmd_reduce)

    g = sub.add_parser("augment", help="build an alternating augmentation")
    g.add_argument("file")
    g.add_argument("--emit-pd", help="write the augmented PD codes here")
    g.add_argument("--emit-svg", help="write an SVG of the (last) augmentation here")
    g.set_defaults(func=_cmd_augment)

    b = sub.add_parser("bounds", help="volume windows for a twist count")
    b.add_argument("--twist", type=int, required=True)
    b.add_argument("--claim-min-twist", type=int, default=None)
    b.set_defaults(func=_cmd_bounds)

    gen = sub.add_parser("gen", help="random qualifying knot diagram")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--letters", type=_at_least(1), default=12)
    gen.add_argument("--flips", type=_at_least(0), default=2)
    gen.add_argument("--max-crossings", type=_at_least(1), default=None)
    gen.set_defaults(func=_cmd_gen)

    s = sub.add_parser("selfcheck", help="run the pipeline property suite")
    s.add_argument("--cases", type=_at_least(1), default=25)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=_cmd_selfcheck)

    rd = sub.add_parser("render", help="draw a diagram as SVG")
    rd.add_argument("file")
    rd.add_argument("out")
    rd.set_defaults(func=_cmd_render)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _input_error(error: str, message: str) -> int:
    print(json.dumps({"error": error, "message": message, "exit": 2}), file=sys.stderr)
    return 2


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", None) is None and args.command in ("gen", "selfcheck"):
        seed = os.environ.get("ALTKNOT_SEED", str(_DEFAULT_SEED))
        try:
            args.seed = int(seed)
        except ValueError:
            return _input_error("ValueError", f"ALTKNOT_SEED is not an integer: {seed!r}")
    try:
        return args.func(args)
    except DiagramError as exc:
        code = exit_code_for(exc)
        _error_record(exc, code)
        return code
    except OSError as exc:
        return _input_error("OSError", str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
