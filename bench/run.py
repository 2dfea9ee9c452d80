"""fsolink benchmark: one command that runs a workload, checks every output
and prints every metric with its unit.

    python3 bench/run.py --workload {curves,domain,mc} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-check

Run it from the root of the repository. Each workload runs in a fresh
Python process (bench/worker.py) against the sources under src/. Set-up
time is measured in separate fresh processes. The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and the
metrics listed in BENCHMARK.json: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1. A result file with an environment stamp is
written under .bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("curves", "domain", "mc")
TIME_LIMIT_S = 170.0
SETUP_RUNS = 6
SHOWN_FAILURES = 10

# what "ready" means for set-up: the CLI module imported and a model built
SETUP_PROBE = ("import fsolink.cli as cli; cli.RunConfig().operating_point(); "
               "print('ready', flush=True)")
# a start that uses no fsolink code, timed next to each set-up probe; set-up
# is scaled by SETUP_REFERENCE_S / its time, as worker timings are scaled by
# the kernels of calibration.py
REFERENCE_PROBE = ("import numpy, scipy.special, scipy.integrate; "
                   "print('ready', flush=True)")
SETUP_REFERENCE_S = 0.7
IMPORT_ORDER = ("numpy", "scipy.special", "scipy.integrate", "fsolink.cli")
IMPORT_PROBE = f"""
import importlib, json, time
out = {{}}
for name in {IMPORT_ORDER!r}:
    t0 = time.perf_counter()
    importlib.import_module(name)
    out[name] = time.perf_counter() - t0
print(json.dumps(out))
"""

# reported metrics beyond BENCHMARK.json's end_to_end list, by workload
REPORTED = {
    "curves": ("sweep_s", "delta_s", "power_step_s", "pdf_s", "nested_point_ms"),
    "domain": ("point_p50_ms", "point_tail_ms"),
    "mc": ("mc_symbols_per_s", "mc_symbols_per_s_w2"),
}
UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "wall_raw_s": "s", "speed": "ratio",
    "failed_frac": "ratio", "ok_frac": "ratio",
    "peak_rss_mb": "MB", "sweep_s": "s", "delta_s": "s", "power_step_s": "s",
    "pdf_s": "s", "nested_point_ms": "ms", "point_p50_ms": "ms", "point_tail_ms": "ms",
    "mc_symbols_per_s": "symbols/s", "mc_symbols_per_s_w2": "symbols/s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run or verify a workload."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, deadline):
    """Run a child process to completion, or kill it at the deadline; returns its output."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish before the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited with code {proc.returncode}")
    return out


def start_time(code, deadline):
    """Seconds from starting a fresh interpreter on `code` until it prints ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up probe did not finish before the time limit")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def setup_times(runs, deadline):
    """(set-up seconds, reference start seconds) of fresh interpreters, one
    pair per run, the two started one right after the other."""
    return [(start_time(SETUP_PROBE, deadline), start_time(REFERENCE_PROBE, deadline))
            for _ in range(runs)]


def import_times(runs, deadline):
    """Median import cost per module in a fresh interpreter, in seconds.

    Modules are imported one after another in IMPORT_ORDER and each gets the
    time its import adds to the ones before it, so numpy's share is not
    counted again under scipy, nor scipy's under fsolink.
    """
    samples = {name: [] for name in IMPORT_ORDER}
    for _ in range(runs):
        out = run_child([sys.executable, "-c", IMPORT_PROBE], deadline)
        for name, value in json.loads(out.strip().splitlines()[-1]).items():
            samples[name].append(value)
    return {name: statistics.median(xs) for name, xs in samples.items()}


def environment(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    lines = {}
    for path in sorted((SRC / "fsolink").glob("*.py")):
        with open(path) as fh:
            lines[path.stem] = sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "seed": seed,
        "src_lines": dict(lines, total=sum(lines.values())),
    }


def measure(workload, seed, seconds, trace, tiny=False, perturb=False):
    """Run one workload and return everything it measured."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "perturb": perturb, "environment": environment(seed)}
    setup = None
    if trace:
        result["import_s"] = import_times(1 if tiny else 3, deadline)
    else:
        if not tiny:
            start_time(SETUP_PROBE, deadline)  # the first start also compiles bytecode
        setup = setup_times(1 if tiny else SETUP_RUNS // 2, deadline)

    tmpdir = tempfile.mkdtemp(prefix="jobs-", dir=OUT)
    spans = OUT / f"spans_{workload}_seed{seed}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--tmpdir", tmpdir]
    argv += ["--spans", str(spans)] if trace else []
    argv += ["--tiny"] if tiny else []
    argv += ["--perturb"] if perturb else []
    try:
        out = run_child(argv, deadline)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if setup is not None:
        if not tiny:
            # the other half after the workload, so one slow spell cannot cover all
            setup += setup_times(SETUP_RUNS - len(setup), deadline)
        result["setup_samples_s"] = setup
    try:
        worker = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc

    result["environment"].update(worker.pop("versions"))
    metrics = worker.pop("metrics")
    if setup is not None:
        scaled = [t * SETUP_REFERENCE_S / ref for t, ref in setup]
        metrics["setup_s"] = {"value": statistics.median(scaled), "n": len(setup),
                              "tail_pct": None, "tail": None}
        metrics["setup_raw_s"] = {"value": statistics.median(t for t, _ in setup),
                                  "n": len(setup), "tail_pct": None, "tail": None}
    result["end_to_end"] = metrics
    if trace:
        per_layer = worker.pop("per_layer")
        for name, value in result["import_s"].items():
            per_layer["setup.import_s." + name.removesuffix(".cli")] = value
        result["per_layer"] = per_layer
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(worker)
    return result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _value(entry):
    return entry["value"] if isinstance(entry, dict) else entry


def report(result, spec):
    """Human-readable lines, then the JSON summary that must come last."""
    wl = result["workload"]
    lines = [f"fsolink benchmark: workload {wl}, seed {result['seed']}, "
             f"{result['seconds']} s, trace {result['trace']}, "
             f"{result['reps']} repetitions"]
    names = ["setup_s", "setup_raw_s", "wall_s", "wall_raw_s", "speed",
             "failed_frac", "ok_frac", "peak_rss_mb"]
    names += REPORTED[wl]
    for name in names:
        entry = result["end_to_end"].get(name)
        if entry is None:
            continue
        text = f"  {name:<22} {_value(entry):.6g} {UNITS[name]}"
        if isinstance(entry, dict):
            tail = (f", p{entry['tail_pct']:g} {entry['tail']:.6g}"
                    if entry["tail_pct"] is not None else ", no tail percentile")
            text += f"  (n={entry['n']}{tail})"
        lines.append(text)
    lines.append(f"  ops: {result['failed']} failed of {result['attempted']} attempted; "
                 f"deterministic across repetitions: {result['deterministic']}")
    by_kind = {}
    for kind, _, _ in result["failures"]:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    if by_kind:
        lines.append("  failed ops in one repetition, by kind: "
                     + ", ".join(f"{k} {n}" for k, n in sorted(by_kind.items())))
    for _, label, reason in result["failures"][:SHOWN_FAILURES]:
        lines.append(f"  failed: {label}: {reason}")
    if len(result["failures"]) > SHOWN_FAILURES:
        lines.append(f"  ... {len(result['failures']) - SHOWN_FAILURES} more in the result file")

    section = "per_layer" if result["trace"] else "end_to_end"
    if result["trace"]:
        for entry in spec["per_layer"]:
            value = result["per_layer"][entry["name"]]
            lines.append(f"  {entry['name']:<44} {value:.6g} {entry['unit']}")
    values = result[section]
    missing = [e["name"] for e in spec[section] if e["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {e["name"]: {"value": _value(values[e["name"]]), "unit": e["unit"]}
               for e in spec[section]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    summary = {"correct": bool(result["deterministic"] and finite),
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    return lines, summary


def write_result(result, summary):
    name = f"BENCH_{result['workload']}_seed{result['seed']}_trace{result['trace']}.json"
    with open(OUT / name, "w") as fh:
        json.dump(dict(result, summary=summary), fh, indent=1)
    return OUT / name


def self_check(spec):
    """Tiny runs of every workload: a perturbed reference must count as a
    failure, and every named metric must print with its unit."""
    problems = []
    for wl in WORKLOADS:
        plain = measure(wl, 1, 0, 0, tiny=True)
        lines, summary = report(plain, spec)
        if not summary["correct"]:
            problems.append(f"{wl}: tiny run is not correct")
        names = ([e["name"] for e in spec["end_to_end"]]
                 + ["setup_raw_s", "wall_raw_s", "speed", "failed_frac"] + list(REPORTED[wl]))
        for name in names:
            unit = UNITS[name]
            if not any(l.split()[:1] == [name] and f" {unit}" in l for l in lines):
                problems.append(f"{wl}: {name} not printed with unit {unit}")
        bad = measure(wl, 1, 0, 0, tiny=True, perturb=True)
        if bad["failed"] <= plain["failed"]:
            problems.append(f"{wl}: a perturbed reference was not counted as a failure")
        traced = measure(wl, 1, 0, 1, tiny=True)
        lines, _ = report(traced, spec)
        for entry in spec["per_layer"]:
            if not any(l.split()[:1] == [entry["name"]] and l.endswith(" " + entry["unit"])
                       for l in lines):
                problems.append(f"{wl}: {entry['name']} not printed with unit {entry['unit']}")
        print(f"self-check {wl}: {plain['failed']} ops failed, "
              f"{bad['failed']} with perturbed references", flush=True)
    for p in problems:
        print("self-check problem: " + p)
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the harness self-check on tiny inputs")
    args = parser.parse_args(argv)
    if not (SRC / "fsolink" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC / 'fsolink'}", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.self_check:
            return self_check(spec)
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        lines, summary = report(result, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    path = write_result(result, summary)
    print("\n".join(lines))
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
