"""Whole-pipeline benchmark for recexplain.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed, then repeats the four stages
(preprocess -> train -> select -> evaluate), each full repetition in a
fresh process followed by SELECT_REPS select-only runs, each in a fresh
process too, until S seconds of measurement are used (at least one
repetition).  Every repetition's outputs are checked and must be
byte-identical to the first.  Prints the metrics with units and, as the last
line, one JSON object: end-to-end metrics (each stage's median sample) with
--trace 0, per-module metrics from one extra traced repetition with
--trace 1.  Times are in reference seconds (see calibrate.py), which keeps
them steady on a host whose speed drifts; wall seconds are printed too.
Exits 1 when an output check fails and 2 when the program cannot be run at
all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
from corpus_gen import write_corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3  # preprocess runs per full repetition; setup_s is their median
SELECT_REPS = 1  # select-only runs after each full repetition
DEADLINE_S = 170  # the whole run, children included, ends within this

END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("select_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_bleu4", "ratio"),
    ("test_rougeL", "ratio"),
    ("test_attr_f1", "ratio"),
]


class BenchError(Exception):
    pass


def _child(args: list[str], out: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "pipeline.py"), *args, str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the graphs are small and the machine may be shared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def stage_samples(reps: list[dict], selects: list[dict], scale: bool = True) -> dict[str, list[float]]:
    """Every timed sample of each stage, in reference seconds (scale=True)
    or wall seconds: the full repetitions' stages and the select-only runs."""
    samples: dict[str, list[float]] = {stage: [] for stage in spans.STAGES}
    for rec in reps:
        st, refs = rec["stage_s"], rec["reference_s"]
        walls = [*st["setup"], st["train"], st["select"], st["evaluate"]]
        stages = ["preprocess"] * len(st["setup"]) + ["train", "select", "evaluate"]
        for i, (stage, w) in enumerate(zip(stages, walls)):
            samples[stage].append(calibrate.scaled(w, refs[i], refs[i + 1]) if scale else w)
    for rec in selects:
        w, (before, after) = rec["select_s"], rec["reference_s"]
        samples["select"].append(calibrate.scaled(w, before, after) if scale else w)
    return samples


def end_to_end(reps: list[dict], selects: list[dict], scale: bool = True) -> dict[str, float]:
    """END_TO_END metrics: each stage's median sample; total_s is the sum of
    the four stage medians."""
    med = {k: statistics.median(v) for k, v in stage_samples(reps, selects, scale).items()}
    out = {
        "setup_s": med["preprocess"],
        "train_s": med["train"],
        "select_s": med["select"],
        "total_s": sum(med.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    for name in ("test_bleu4", "test_rougeL", "test_attr_f1"):
        out[name] = statistics.median(r["quality"][name] for r in reps)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "recexplain" / "cli.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'recexplain'}")
    wl = WORKLOADS[workload]
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    pipe = work / "pipeline"
    write_corpus(wl.shape, seed, data)
    config = work / "config.json"
    config.write_text(json.dumps(wl.config(data, pipe), indent=1), encoding="utf-8")
    env = _env()
    _child(["prepare", str(config), workload, str(seed)], work / "prepare.json", env, deadline)

    # Full repetitions, each followed by SELECT_REPS select-only runs, while
    # the next one is expected to fit in the measuring time; a traced run
    # keeps room for its traced repetition.
    reps: list[dict] = []
    selects: list[dict] = []
    errors: list[str] = []
    wall: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        kind = "select" if len(selects) < SELECT_REPS * len(reps) else "full"
        if reps:
            left = seconds - (time.perf_counter() - start) - (1.5 * wall["full"] if trace else 0.0)
            if left < wall.get(kind, wall["full"]):
                kind = "select"
                if left < wall.get(kind, wall["full"]):
                    break
        t0 = time.perf_counter()
        if kind == "full":
            shutil.rmtree(pipe, ignore_errors=True)
            rec = _child(["measure", str(config), str(SETUP_REPS), "0"], work / "rep.json", env, deadline)
            reps.append(rec)
            errors += rec["errors"]
            if rec["digests"] != reps[0]["digests"]:
                errors.append(f"repetition {len(reps) - 1} outputs differ from repetition 0: {rec['digests']}")
        else:
            rec = _child(["select", str(config)], work / "select.json", env, deadline)
            selects.append(rec)
            if rec["digest"] != reps[0]["digests"]["selections.jsonl"]:
                errors.append(f"select-only run {len(selects) - 1} wrote other selections: {rec['digest']}")
        wall[kind] = time.perf_counter() - t0
    medians = end_to_end(reps, selects)
    first = reps[0]

    lines = [
        f"workload {workload} seed {seed}: {len(reps)} full repetitions and {len(selects)} "
        f"select-only runs in {time.perf_counter() - start:.1f} s",
        f"nproc {os.cpu_count()}, BLAS threads {first['blas_threads']}, python {sys.version.split()[0]}",
        f"corpus {first['corpus']}",
    ]
    for stage, (attempted, skipped) in first["operations"].items():
        lines.append(f"{stage}: {attempted} pairs attempted, {skipped} skipped")
    lines.append(f"pairs solved greedily {first['greedy_selections']}, program warnings {first['warnings']}")
    lines.append(f"best-epoch validation BLEU-4 {first['quality']['val_bleu4']:.6g}")
    for name, value in first["digests"].items():
        lines.append(f"sha256 {name} {value}")
    ref_times = [t for r in reps + selects for t in r["reference_s"]]
    lines.append(
        f"reference loop {statistics.median(ref_times) * 1000:.2f} ms median, "
        f"{min(ref_times) * 1000:.2f}-{max(ref_times) * 1000:.2f} ms "
        f"(nominal {calibrate.REFERENCE_S * 1000:.0f} ms); stage times below are in reference seconds"
    )
    walls = end_to_end(reps, selects, scale=False)
    samples = stage_samples(reps, selects)
    for name, unit in END_TO_END:
        in_wall = f" (wall {walls[name]:.6g} s)" if unit == "s" else ""
        lines.append(f"{name:>14} {medians[name]:12.6g} {unit}{in_wall}")
    for stage, values in samples.items():
        lines.append(f"{stage:>14} samples: {', '.join(f'{v:.4g}' for v in values)}")

    if trace:
        shutil.rmtree(pipe, ignore_errors=True)
        traced = _child(["measure", str(config), "1", "1"], work / "traced.json", env, deadline)
        errors += traced["errors"]
        if traced["digests"] != first["digests"]:
            errors.append("traced outputs differ from the untraced ones")
        if traced["missing_hooks"]:
            lines.append(f"hooks not found (reported as 0): {', '.join(traced['missing_hooks'])}")
        scale = calibrate.REFERENCE_S / statistics.median(traced["reference_s"])
        layer = spans.layer_metrics(
            traced["trace"], medians["total_s"], traced["quality"]["val_bleu4"], scale=scale
        )
        for name, unit, _ in spans.PER_LAYER:
            lines.append(f"{name:>40} {layer[name]:14.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(a for a, _ in first["operations"].values())
    failed = sum(s for _, s in first["operations"].values())
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines + [f"check failed: {e}" for e in errors]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
