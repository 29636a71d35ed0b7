"""Run one workload in this process and print its figures as one JSON line.

    python3 perfbench/worker.py --workload reduce --seed 1 --seconds 20 [--trace] [--tiny]

``run.py`` starts one fresh worker per measurement; the worker is single
threaded and drives the package as a closed loop with one caller: the
next operation starts when the last one returns.  Phases:

1. set-up: import the package, build the inputs ``SETUP_REPEATS`` times
   (the same seed must give the same inputs each time), warm up on two
   inputs;
2. timed phase: ``workloads.PASSES`` passes over the inputs, in order,
   then more whole passes while fewer than ``--seconds`` have elapsed;
3. checks: every output, outside the timed phase.

Two measures keep the figures steady on a shared host, where other
tenants slow this process by up to 2x, in bursts of seconds and in
stretches of minutes:

- An input's time is the fastest of its repeats in the first
  ``workloads.PASSES`` passes.  The passes lie seconds apart, so the
  fastest repeat misses the bursts.  Passes past those only fill up
  ``--seconds``: their outputs are checked and counted, their times are
  not used, so every run rests on the same number of repeats.
- Every time is scaled to a reference host speed.  A fixed loop of
  pure-Python work (``reference_loop``) runs before every operation; an
  operation's time is multiplied by ``REFERENCE_S`` over the lower
  quartile of that loop's times in the same pass (``host_speed``), and
  set-up by the same ratio taken during set-up.  The figures read as if
  the loop took ``REFERENCE_S``, which is about its uncontended time on
  a 2-vCPU x86 VM with Python 3.11.  The loop is not package code, so a change to the package moves
  the figures and not the scale.  The unscaled figures go to the result
  too.

With ``--trace`` the package's public functions are wrapped before
set-up and every call made during an operation is recorded as a span.
Without it the tracing module is never imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WARMUP_INPUTS = 2
REFERENCE_S = 0.002
REFERENCE_IN_SETUP = 5  # loop runs before each input build


def reference_loop() -> int:
    """Fixed work of the kinds the package spends its time on, at the size
    of its diagrams: union-find over a few hundred ids, and small dicts
    and sets of tuples.  Against operations of ``augment-large`` and
    ``reduce`` its time correlates at 0.96 over windows of a few seconds, with a
    slope near 1 (a larger, cache-hungry loop over-corrected)."""
    total = 0
    for _ in range(24):
        parent = list(range(250))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for k in range(1, 250):
            parent[find(k)] = find((k * 7919) % k)
        table = {(k % 13, k): (k, k + 1) for k in range(250)}
        total += len({v for (a, _b), v in table.items() if a % 3})
    return total


def host_speed(times: list[float]) -> float:
    """The reference loop's time that stands for the host's speed: the
    lower quartile of a window of its runs.  Run right after an operation,
    many runs are slowed by what the operation left in the caches, which
    says nothing about the host; the median follows that and over-corrects
    (over ten runs of one seed it left spreads of 5-9%, the lower quartile
    3-4%)."""
    return statistics.quantiles(times, n=4)[0]


def time_reference() -> float:
    """Seconds the reference loop takes now.  Collection is paused so that
    the heap the package leaves behind does not enter the time."""
    gc.disable()
    try:
        t = perf_counter()
        reference_loop()
        return perf_counter() - t
    finally:
        gc.enable()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true", help="a few small inputs (self-test)")
    args = p.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import altknot  # noqa: F401  (the import is part of set-up)
    import inputs
    import workloads
    import_s = perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        wrapped = tracer.install()
        tracer.op = "setup"

    wl = workloads.WORKLOADS[args.workload]
    passes = workloads.PASSES[args.workload]
    sizes = workloads.SIZES[args.workload]["tiny" if args.tiny else "full"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        time_reference()  # its first run pays for the interpreter's specialisation
        gen_s, digests, setup_refs = [], set(), []
        for _ in range(SETUP_REPEATS):
            setup_refs += [time_reference() for _ in range(REFERENCE_IN_SETUP)]
            t = perf_counter()
            xs = wl.make(args.seed, sizes, str(work))
            gen_s.append(perf_counter() - t)
            digests.add(inputs.digest(wl.input_text(x) for x in xs))
        t = perf_counter()
        for x in xs[:WARMUP_INPUTS]:
            wl.op(x)
        warmup_s = perf_counter() - t
        if tracer:
            tracer.op = None

        records = []  # (pass, input index, latency s, fingerprint or None, error or None)
        refs: list[list[float]] = []  # reference loop times, per pass
        first: dict[int, object] = {}
        start = perf_counter()
        n_pass = 0
        while n_pass < passes or perf_counter() - start < args.seconds:
            refs.append([])
            for i, x in enumerate(xs):
                refs[-1].append(time_reference())
                if tracer:
                    tracer.op = len(records)
                t = perf_counter()
                try:
                    out, err = wl.op(x), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                lat = perf_counter() - t
                if tracer:
                    tracer.op = None
                if err is None and i not in first:
                    first[i] = out
                records.append((n_pass, i, lat, None if err else wl.fingerprint(out), err))
            n_pass += 1
        wall_s = perf_counter() - start
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        passed, errors = evaluate(wl, xs, records, first)
        scale = [REFERENCE_S / host_speed(r) for r in refs]
        best: dict[int, float] = {}
        best_raw: dict[int, float] = {}
        for n, i, lat in passed:
            if n < passes:
                best[i] = min(lat * scale[n], best.get(i, lat * scale[n]))
                best_raw[i] = min(lat, best_raw.get(i, lat))
        setup_raw_s = import_s + statistics.median(gen_s) + warmup_s
        setup_scale = REFERENCE_S / host_speed(setup_refs)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": len(records),
            "failed": len(records) - len(passed),
            "passes": n_pass,
            "repeats": passes,
            "wall_s": wall_s,
            "best_s": [best[i] for i in sorted(best)],
            "best_raw_s": [best_raw[i] for i in sorted(best_raw)],
            "best_diagrams": sum(wl.diagrams(xs[i]) for i in best),
            "pass_scale": scale,
            "setup_s": setup_raw_s * setup_scale,
            "setup_raw_s": setup_raw_s,
            "setup_scale": setup_scale,
            "setup_parts_s": {"import": import_s, "generate": gen_s, "warmup": warmup_s},
            "peak_rss_mib": peak_rss_mib,
            "inputs_digest": digests.pop() if len(digests) == 1 else None,
            "outputs_digest": inputs.digest(
                pd for i in range(len(xs)) for pd in workloads.output_pds(args.workload, first[i])
            ) if len(first) == len(xs) else None,
            "inputs": workloads.input_stats(args.workload, xs),
            "outputs": workloads.output_stats(args.workload, first),
            "problems": errors[:5],
        }
        if tracer:
            run_scale = REFERENCE_S / host_speed([t for r in refs for t in r])
            result["layers"] = layer_metrics(tracer, args.workload, records, first, run_scale)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(str(spans_path))
            result["trace"] = {"spans": len(tracer.spans), "functions": wrapped,
                               "file": str(spans_path.relative_to(ROOT))}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def evaluate(wl, xs: list, records: list, first: dict) -> tuple[list, list[str]]:
    """Check outputs after the timed phase.  The first output of each input
    is checked in full; an operation passes when it raised nothing and its
    fingerprint equals that of a first output that passed.  Returns the
    passing (pass, input index, latency) triples and the problems found."""
    problems: dict[int, list[str]] = {}
    for i, out in first.items():
        try:
            problems[i] = wl.check(xs[i], out)
        except Exception:  # a checker crash is a failed output
            problems[i] = [traceback.format_exc(limit=3)]
    good = {i: wl.fingerprint(out) for i, out in first.items() if not problems[i]}
    passed = [(n, i, lat) for n, i, lat, fp, err in records if err is None and good.get(i) == fp]
    errors = [err for *_, err in records if err] + [p for ps in problems.values() for p in ps]
    return passed, errors


def layer_metrics(tracer, name: str, records: list, first: dict, scale: float) -> dict:
    """Per-operation means of every traced function, times scaled by
    ``scale``, plus the derived augmentation ratios.  Set-up spans count
    only toward ``generate.braid_closure.total_s``, reported per set-up."""
    import workloads

    timed = lambda op: isinstance(op, int)  # noqa: E731
    n = len(records)
    out = {
        f"{fn}.{key}": value * (1 if key == "calls" else scale) / n
        for fn, rec in tracer.summary(timed).items()
        for key, value in rec.items()
    }
    setup = tracer.summary(lambda op: op == "setup").get("generate.braid_closure", {})
    out["generate.braid_closure.total_s"] = setup.get("total_s", 0.0) * scale / SETUP_REPEATS
    merges = {i: sum(r[0] for r in workloads.augment_stats(name, o)) for i, o in first.items()}
    total_merges = sum(merges.get(i, 0) for _n, i, *_ in records)
    out["augmentation.merges"] = total_merges / n
    for metric, parent in (("join_validations_per_merge", "augmentation.join_curves"),
                           ("finger_validations_per_merge", "augmentation.propagate_finger")):
        calls = tracer.child_calls("diagram.validate_diagram", parent, timed)
        out[f"augmentation.{metric}"] = calls / total_merges if total_merges else 0.0
    stats = workloads.output_stats(name, first)
    out["augmentation.t_G_over_t_D"] = stats.get("t_G_over_t_D", 0.0)
    out["augmentation.i_A_D_over_t_D"] = stats.get("i_A_D_over_t_D", 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
