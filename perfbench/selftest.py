"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks that
- ``BENCHMARK.json`` declares exactly the metrics, with the units, that
  ``run.py`` emits, and every one of them is emitted for every workload in
  both modes;
- a deliberately corrupted output, first or repeated, is counted as a
  failed operation and lowers ``pass_ratio``;
- the same seed reproduces ``inputs_digest`` and ``outputs_digest``, and
  another seed changes ``inputs_digest``.
Exits 0 when every check holds.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
from time import monotonic

import run

sys.path.insert(0, str(run.ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
import inputs  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def tiny_run(workload: str, seed: int, trace: bool) -> dict:
    return run.run_worker(workload, seed, 0.05, trace, monotonic() + 120, extra=("--tiny",))


def declared_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(list(spec["command"]) == ["python3", "perfbench/run.py"], "BENCHMARK.json command")
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "BENCHMARK.json workloads")
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == emitted, f"BENCHMARK.json {key} names and units match run.py")


def emitted_metrics() -> None:
    for w in run.WORKLOADS:
        plain = tiny_run(w, 7, False)
        traced = tiny_run(w, 7, True)
        check(plain["failed"] == 0 and traced["failed"] == 0, f"{w}: tiny run has no failures")
        e2e = run.end_to_end(plain)
        layers = run.per_layer(traced, plain)
        check(set(e2e) == set(run.END_TO_END), f"{w}: every end-to-end metric emitted")
        check(set(layers) == set(run.PER_LAYER), f"{w}: every per-layer metric emitted")
        check(all(isinstance(v, (int, float)) for v in [*e2e.values(), *layers.values()]),
              f"{w}: every metric is a number")
        check(all(e2e[k] > 0 for k in e2e), f"{w}: no end-to-end metric is 0")
        check(plain["inputs_digest"] == traced["inputs_digest"], f"{w}: same seed, same inputs_digest")
        check(plain["outputs_digest"] == traced["outputs_digest"], f"{w}: same seed, same outputs_digest")
        if w == "reduce":
            check(layers["augmentation.augment.total_s"] == 0, "reduce: augmentation spans empty")
        if w == "augment-large":
            check(layers["reduction.preprocess.total_s"] == 0, "augment-large: reduction spans empty")


# A one-crossing curl in a piece of its own: the PD still parses and
# validates, but the diagram is no longer reduced, and its text differs.
CURL = " X(9001,9001,9002,9002)"


def corrupt(name: str, out):
    """A wrong output of the kind each workload's check must catch."""
    if name == "reduce":
        trace, flags, cls, text = out
        return trace, flags, cls, text + CURL
    if name == "augment-large":
        d, res, report, text = out
        return d, dataclasses.replace(res, t_G=res.t_G + 1), report, text + CURL
    code, stdout, stderr = out
    return code, "\n".join(stdout.splitlines()[:-1]) + "\n", stderr  # last block's line lost


def corrupted_outputs_fail() -> None:
    for name, wl in workloads.WORKLOADS.items():
        work = run.ROOT / ".perfbench_work" / f"selftest-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            xs = wl.make(3, workloads.SIZES[name]["tiny"], str(work))[:2]
            outs = [wl.op(x) for x in xs]
            bad = [corrupt(name, o) for o in outs]
            # input 0's first output is corrupted, and so is input 1's repeat
            records = [(0, 0, 0.01, wl.fingerprint(bad[0]), None),
                       (0, 1, 0.01, wl.fingerprint(outs[1]), None),
                       (1, 0, 0.01, wl.fingerprint(outs[0]), None),
                       (1, 1, 0.01, wl.fingerprint(bad[1]), None)]
            passed, problems = worker.evaluate(wl, xs, records, {0: bad[0], 1: outs[1]})
            check([(n, i) for n, i, _ in passed] == [(0, 1)] and bool(problems),
                  f"{name}: corrupted first and repeated outputs both counted as failed")
            passed, problems = worker.evaluate(wl, xs, records[1:3], {0: outs[0], 1: outs[1]})
            check(len(passed) == 2 and not problems, f"{name}: uncorrupted outputs pass")
        finally:
            shutil.rmtree(work, ignore_errors=True)


def digests_follow_seed() -> None:
    a = inputs.digest(x.pd for x in inputs.reduce_inputs(11, **workloads.SIZES["reduce"]["tiny"]))
    b = inputs.digest(x.pd for x in inputs.reduce_inputs(11, **workloads.SIZES["reduce"]["tiny"]))
    c = inputs.digest(x.pd for x in inputs.reduce_inputs(12, **workloads.SIZES["reduce"]["tiny"]))
    check(a == b != c, "inputs_digest repeats for a seed and changes with it")


def ineligible_blocks_draw() -> None:
    """Every size a ``cli-batch`` ineligible block may have can be drawn;
    a size that cannot would make set-up fail for some seeds."""
    lo, hi = 8, 40  # the defaults of inputs.batch_inputs
    for kind in ("alternating", "composite"):
        for size in range(lo, hi + 1):
            inputs.ineligible_item(random.Random(f"selftest/{size}"), "x", size, kind)
    check(True, f"ineligible blocks of {lo}-{hi} crossings draw, alternating and composite")


def main() -> int:
    declared_metrics()
    digests_follow_seed()
    ineligible_blocks_draw()
    corrupted_outputs_fail()
    emitted_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
