"""Runs one workload in a fresh process and prints its measurements as one
JSON line. Started by run.py, which owns set-up timing and reporting.

The job list is run a fixed number of times, one op at a time (a closed
loop with one client). The number of repetitions follows from --seconds and
a nominal repetition time per workload, never from the clock, so that
`attempted` and `failed` depend only on the seed and --seconds. With
--trace 1 the repetitions alternate untraced and traced; the traced ones
give the per-layer numbers and the untraced ones the baseline for the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

import numpy
import scipy

import calibration
import tracing
import workloads

TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_REPS = 3  # repetitions, so that every per-op median has three samples
# seconds of one untraced repetition, typical on a shared 2-core Xeon VM with
# the library as it was when the benchmark was added; a run makes
# --seconds / REP_S of them
REP_S = {"curves": 9.0, "domain": 4.8, "mc": 2.8}
CALIBRATE_EVERY_S = 0.5
# per-layer metrics that are counts or ratios of counts, and so repeat exactly
COUNT_SUFFIXES = (".calls", ".failed", ".curve_evals", "_per_average", "_per_solve")


def timing(samples, scale=1.0):
    """Median and the highest tail percentile with at least ten samples beyond it."""
    xs = sorted(x * scale for x in samples)
    n = len(xs)
    out = {"value": statistics.median(xs) if xs else 0.0, "n": n,
           "tail_pct": None, "tail": None}
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10.0:
            out["tail_pct"] = level
            out["tail"] = xs[max(math.ceil(level / 100.0 * n) - 1, 0)]
    return out


def schedule(workload, seconds, tiny, trace):
    """Whether each repetition is traced, in order: plain and traced ones
    alternate, plain first, and at least half are plain."""
    if tiny:
        return [False, True] if trace else [False]
    total = max(MIN_REPS, int(seconds / REP_S[workload]))
    n_traced = total // 2 if trace else 0
    return [False, True] * n_traced + [False] * (total - 2 * n_traced)


def run_rep(ops):
    """Run the job list once; returns latencies, failures, outputs, the
    reference kernels' times, taken between ops about every half second and
    once at the end, and for each op the index of the last kernel times
    taken before it."""
    latencies, failures, outputs, kernel, slots = [], [], [], [], []
    last = -math.inf
    for op in ops:
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            kernel.append(calibration.kernel_times())
            last = time.perf_counter()
        slots.append(len(kernel) - 1)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a harness error
            latencies.append(time.perf_counter() - t0)
            reason = " ".join(f"raised {type(exc).__name__}: {exc}".split())[:300]
            failures.append((op.kind, op.label, reason))
            outputs.append(reason)
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            reason = op.check(result)
            output = op.output(result)
        except (OSError, ValueError, KeyError) as exc:  # output missing or malformed
            reason = output = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((op.kind, op.label, reason))
        outputs.append(output)
    kernel.append(calibration.kernel_times())
    return {"latencies": latencies, "failures": failures, "outputs": outputs,
            "kernel": kernel, "slots": slots}


def scaled_latencies(ops, rep):
    """The repetition's latencies at the reference speed. Each op is scaled by
    the median time of its kernel around it, the three runs before and the
    three after, so that a change of the machine's speed within a run is
    followed (see calibration.py)."""
    kernel = rep["kernel"]
    out = []
    for op, t, j in zip(ops, rep["latencies"], rep["slots"]):
        around = statistics.median(k[op.kernel] for k in kernel[max(j - 2, 0):j + 4])
        out.append(t * calibration.REFERENCE_S[op.kernel] / around)
    return out


def layer_metrics(tracer, wall):
    """Per-layer numbers of one traced repetition."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    averages = sum(calls[n] for n in tracing.AVERAGE_SPANS)
    solves = calls["errorrates.power_increase_for_next_bit"]
    out = {
        "quadrature.integrand_evals_per_average":
            counts["quadrature.integrand_evals_in_averages"] / averages if averages else 0.0,
        "quadrature.integrate.calls": calls["quadrature.integrate"],
        "quadrature.integrate.self_s": self_s["quadrature.integrate"],
        "quadrature.integrate.failed": tracer.failed["quadrature.integrate"],
        "errorrates.failed": sum(tracer.failed[n] for n in tracing.ERRORRATES_SPANS),
        "quadrature.find_crossing.curve_evals": counts["quadrature.find_crossing.curve_evals"],
        "errorrates.averages_per_solve":
            counts["errorrates.averages_in_solves"] / solves if solves else 0.0,
    }
    for name in tracing.AVERAGE_SPANS:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["errorrates.nested.self_s"] = self_s["errorrates.nested"]
    out["specfun.erfc.calls"], out["specfun.erfc.self_s"] = tracer.leaves["specfun.erfc"]
    for name in ("channel.model_build", "channel.pdf_composite"):
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["channel.composite_expectation.self_s"] = self_s["channel.composite_expectation"]
    # Monte Carlo stages from the one-worker runs, where they run one after another
    names = {span[0]: span[2] for span in tracer.spans}
    stage = {"channel.sample_composite": 0.0, "montecarlo.ml_detect": 0.0}
    for _, parent, name, _, _, _, own in tracer.spans:
        if name in stage and names.get(parent) == "montecarlo.simulate.w1":
            stage[name] += own
    out["channel.sample_composite.self_s"] = stage["channel.sample_composite"]
    out["montecarlo.ml_detect.self_s"] = stage["montecarlo.ml_detect"]
    out["montecarlo.rest_s"] = self_s["montecarlo.simulate.w1"]
    out["cli.main.self_s"] = self_s["cli.main"]
    out["wall_s"] = wall
    return out


def symbols_per_s(ops, latencies, kind):
    picked = [(op.symbols, t) for op, t in zip(ops, latencies) if op.kind == kind]
    total_t = sum(t for _, t in picked)
    return sum(s for s, _ in picked) / total_t if total_t else 0.0


def summarise(name, ops, plain, traced):
    """Untraced end-to-end numbers, plus per-layer numbers when traced."""
    per_op = [statistics.median(rep["latencies"][i] for rep in plain)
              for i in range(len(ops))]
    reps_scaled = [scaled_latencies(ops, rep) for rep in plain]
    scaled = [statistics.median(rep[i] for rep in reps_scaled) for i in range(len(ops))]
    # the median factor by which an op's time was scaled
    speed = statistics.median(s / t for s, t in zip(scaled, per_op) if t > 0)
    attempted = len(ops) * len(plain)
    failed = sum(len(rep["failures"]) for rep in plain)
    m = {
        "wall_s": {"value": sum(scaled), "n": len(plain), "tail_pct": None, "tail": None},
        "wall_raw_s": {"value": sum(per_op), "n": len(plain), "tail_pct": None, "tail": None},
        "speed": speed,
        "failed_frac": failed / attempted,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    def kind_timing(kinds, scale):
        return timing([t for op, t in zip(ops, scaled) if op.kind in kinds], scale)

    if name == "curves":
        for kind in ("sweep", "delta", "power_step", "pdf"):
            m[kind + "_s"] = kind_timing({kind}, 1.0)
        m["nested_point_ms"] = kind_timing({"nested"}, 1e3)
    elif name == "domain":
        m["point_p50_ms"] = kind_timing({op.kind for op in ops}, 1e3)
        m["point_tail_ms"] = dict(m["point_p50_ms"], value=m["point_p50_ms"]["tail"])
    elif name == "mc":
        for kind, key in (("mc_w1", "mc_symbols_per_s"), ("mc_w2", "mc_symbols_per_s_w2")):
            m[key] = {"value": symbols_per_s(ops, scaled, kind), "n": len(plain),
                      "tail_pct": None, "tail": None}
    out = {"metrics": m, "attempted": attempted, "failed": failed,
           "rep_wall_s": [sum(rep["latencies"]) for rep in plain],
           "rep_kernel_s": [{name: statistics.median(k[name] for k in rep["kernel"])
                             for name in calibration.KERNELS} for rep in plain],
           "failures": plain[0]["failures"], "reps": len(plain)}

    if traced:
        layers = [rep["layers"] for rep in traced]
        per_layer = {}
        for key in layers[0]:
            if key.endswith(COUNT_SUFFIXES):
                per_layer[key] = layers[0][key]
            else:
                per_layer[key] = statistics.median(layer[key] for layer in layers)
        per_layer["trace.overhead_frac"] = (
            per_layer.pop("wall_s") / m["wall_raw_s"]["value"] - 1.0)
        w1 = m.get("mc_symbols_per_s", {}).get("value", 0.0)
        w2 = m.get("mc_symbols_per_s_w2", {}).get("value", 0.0)
        per_layer["montecarlo.scaling_eff"] = w2 / (2.0 * w1) if w1 else 0.0
        out["per_layer"] = per_layer
        out["traced_reps"] = len(traced)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--spans", help="file for the spans of the first traced repetition")
    parser.add_argument("--tiny", action="store_true", help="one repetition of a tiny job list")
    parser.add_argument("--perturb", action="store_true",
                        help="perturb reference values (harness self-check)")
    args = parser.parse_args(argv)

    perturb = (workloads.Perturb(power_step_db=1.0, normalisation=1e-3, mc_reference_scale=10.0)
               if args.perturb else workloads.Perturb())
    ops = workloads.WORKLOADS[args.workload](args.seed, args.tmpdir, args.tiny, perturb)
    tracer = tracing.Tracer() if args.trace else None

    plain, traced = [], []
    reference = None
    deterministic = True
    for use_trace in schedule(args.workload, args.seconds, args.tiny, tracer is not None):
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            rep = run_rep(ops)
        finally:
            if use_trace:
                tracer.uninstall()
        if reference is None:
            reference = rep["outputs"]
        elif rep["outputs"] != reference:
            deterministic = False
        del rep["outputs"]
        if use_trace:
            rep["layers"] = layer_metrics(tracer, sum(rep["latencies"]))
            if not traced and args.spans:
                t0 = min((s[4] for s in tracer.spans), default=0.0)
                with open(args.spans, "w") as fh:
                    json.dump({"fields": ["id", "parent", "name", "thread", "start_s",
                                          "end_s", "self_s"],
                               "spans": [[i, p, n, th, s - t0, e - t0, own]
                                         for i, p, n, th, s, e, own in tracer.spans]}, fh)
            traced.append(rep)
        else:
            plain.append(rep)

    out = summarise(args.workload, ops, plain, traced)
    out["deterministic"] = deterministic
    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
