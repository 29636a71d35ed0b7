"""altknot benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload {reduce,augment-large,cli-batch} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each measurement runs in a fresh single-threaded worker
process (``worker.py``).  With ``--trace 0`` one worker measures the
end-to-end metrics.  With ``--trace 1`` an untraced worker and then a
traced worker run the same inputs; the per-layer metrics come from the
traced one, and ``trace.overhead_ratio`` compares the two.  Times are
scaled to a reference host speed; ``worker.py`` says how and why.

The second-to-last line of standard output is a JSON object ``{"meta":
...}`` with the run metadata (interpreter, CPUs, commit, digests, input
and output statistics, sample counts); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Without ``src/altknot``
the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reduce", "augment-large", "cli-batch")
# Every run, traced ones included, must end well inside three minutes.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "throughput_dps": "diagrams/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_CALLS = "calls/op"
_SECS = "s/op"
PER_LAYER = {
    "diagram.face_set.calls": _CALLS,
    "diagram.face_set.self_s": _SECS,
    "diagram.validate_diagram.calls": _CALLS,
    "diagram.validate_diagram.self_s": _SECS,
    "diagram.parse_pd.self_s": _SECS,
    "diagram.serialize_pd.self_s": _SECS,
    "diagram.strand_components.calls": _CALLS,
    "diagram.connected_pieces.calls": _CALLS,
    "analysis.cut_vertices.calls": _CALLS,
    "analysis.cut_vertices.self_s": _SECS,
    "analysis.twist_partition.calls": _CALLS,
    "analysis.twist_partition.self_s": _SECS,
    "analysis.classify_edges.calls": _CALLS,
    "analysis.classify_edges.self_s": _SECS,
    "analysis.diagram_flags.total_s": _SECS,
    "analysis.refinement_check.total_s": _SECS,
    "analysis.shading_classes.total_s": _SECS,
    "reduction.preprocess.self_s": _SECS,
    "reduction.preprocess.total_s": _SECS,
    "reduction.remove_nugatory_crossing.calls": _CALLS,
    "reduction.remove_r2_bigon.calls": _CALLS,
    "reduction.remove_r2_bigon.total_s": _SECS,
    "augmentation.augment.self_s": _SECS,
    "augmentation.augment.total_s": _SECS,
    "augmentation.build_cut_curves.total_s": _SECS,
    "augmentation.overlay_unlink.total_s": _SECS,
    "augmentation.find_merge_arc.total_s": _SECS,
    "augmentation.propagate_finger.total_s": _SECS,
    "augmentation.join_curves.calls": _CALLS,
    "augmentation.join_curves.total_s": _SECS,
    "augmentation.certify_hyperbolic.total_s": _SECS,
    "augmentation.merges": "merges/op",
    "augmentation.join_validations_per_merge": "calls/merge",
    "augmentation.finger_validations_per_merge": "calls/merge",
    "augmentation.t_G_over_t_D": "ratio",
    "augmentation.i_A_D_over_t_D": "ratio",
    "volume.volume_report.total_s": _SECS,
    "render.render_svg.calls": _CALLS,
    "render.render_svg.total_s": _SECS,
    "cli.run.self_s": _SECS,
    "cli.run.total_s": _SECS,
    "generate.braid_closure.total_s": "s/setup",
    "trace.overhead_ratio": "ratio",
}


# numpy's BLAS (used by ``render``) would otherwise start a thread per CPU;
# the worker is meant to be single threaded.
WORKER_ENV = {**os.environ, **dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
               extra: tuple[str, ...] = ()) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    if trace:
        cmd.append("--trace")
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next worker")
    try:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quantiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        raise BenchError("fewer than two inputs passed")
    return statistics.quantiles(xs, n=100, method="inclusive")


def end_to_end(r: dict) -> dict:
    """Latency quantiles over the inputs' fastest repeats; throughput is the
    diagrams of one pass over the time that pass takes at those speeds."""
    q = _quantiles(r["best_s"])
    return {
        "throughput_dps": r["best_diagrams"] / sum(r["best_s"]),
        "latency_p50_ms": q[49] * 1e3,
        "latency_p90_ms": q[89] * 1e3,
        "pass_ratio": (r["attempted"] - r["failed"]) / r["attempted"],
        "setup_s": r["setup_s"],
        "peak_rss_mib": r["peak_rss_mib"],
    }


def per_layer(traced: dict, plain: dict) -> dict:
    out = {name: traced["layers"].get(name, 0.0) for name in PER_LAYER}
    out["trace.overhead_ratio"] = sum(traced["best_s"]) / sum(plain["best_s"])
    return out


def sample_counts(r: dict) -> dict:
    q = _quantiles(r["best_s"])
    return {
        "inputs": len(r["best_s"]),
        "repeats_per_input": r["repeats"],
        "beyond_p50": sum(1 for x in r["best_s"] if x > q[49]),
        "beyond_p90": sum(1 for x in r["best_s"] if x > q[89]),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_status(workload: str, seed: int, key: str, value: str | None) -> str:
    """Compare a digest with the value pinned for this workload and seed."""
    pins = json.loads((HERE / "pinned.json").read_text())
    pinned = pins.get(workload, {}).get(str(seed), {}).get(key)
    if pinned is None:
        return "unpinned"
    return "match" if pinned == value else "mismatch"


def meta(args, runs: list[dict]) -> dict:
    first = runs[0]
    m = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "inputs_digest": first["inputs_digest"],
        "inputs_pin": pin_status(args.workload, args.seed, "inputs", first["inputs_digest"]),
        "outputs_digest": first["outputs_digest"],
        "outputs_pin": pin_status(args.workload, args.seed, "outputs", first["outputs_digest"]),
        "inputs": first["inputs"],
        "outputs": first["outputs"],
        "processes": [
            {
                "traced": "trace" in r,
                "operations": r["attempted"],
                "failed": r["failed"],
                "passes": r["passes"],
                "timed_s": r["wall_s"],
                "samples": sample_counts(r),
                "unscaled": end_to_end({**r, "best_s": r["best_raw_s"], "setup_s": r["setup_raw_s"]}),
                "scale": {"passes": r["pass_scale"], "setup": r["setup_scale"]},
                "setup_parts_s": r["setup_parts_s"],
                "problems": r["problems"],
                **({"trace": r["trace"]} if "trace" in r else {}),
            }
            for r in runs
        ],
    }
    return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="altknot benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "altknot" / "__init__.py").is_file():
        print(f"perfbench: no altknot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_BUDGET_S
    try:
        plain = run_worker(args.workload, args.seed, args.seconds, False, deadline)
        runs = [plain]
        if args.trace:
            runs.append(run_worker(args.workload, args.seed, args.seconds, True, deadline))
            metrics = per_layer(runs[1], plain)
            units = PER_LAYER
        else:
            metrics = end_to_end(plain)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    info = meta(args, runs)
    digests_agree = all(r["inputs_digest"] == plain["inputs_digest"] for r in runs) and all(
        r["outputs_digest"] == plain["outputs_digest"] for r in runs
    )
    if info["inputs_pin"] == "mismatch":
        print("perfbench: inputs differ from the pinned inputs for this seed; comparing these "
              "figures with those of another commit is void", file=sys.stderr)
    if info["outputs_pin"] == "mismatch":
        print("perfbench: serialized outputs differ from the pinned outputs for this seed",
              file=sys.stderr)
    print(json.dumps({"meta": info}))
    print(json.dumps({
        "correct": all(r["failed"] == 0 and r["inputs_digest"] for r in runs) and digests_agree,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
