"""The photonstat benchmark: seeded CLI workloads, oracle-checked outputs.

    python3 photonbench/run.py --workload sweep-fock --seed 1 --seconds 30 --trace 0
    python3 photonbench/run.py --workload all --seed 1 --seconds 30

With `--trace 0` a closed loop with one client runs the workload's
`python -m photonstat ...` invocations one after another, in fresh
interpreters, for `--seconds`, and reports the end-to-end metrics:

  wall_s       median wall time of one pass over the workload's
               invocations, interpreter start included
  setup_s      median wall time of a fresh interpreter importing
               photonstat.cli
  peak_rss_mb  peak resident memory of the CLI processes

Both times are scaled for the machine's speed at the moment they were
taken (see REFERENCE); the unscaled medians are printed and recorded too.

With `--trace 1` the same argv lists run in this process through
`python -m photonstat`'s entry point, alternating untraced and traced
passes (see layers.py), and the per-layer metrics are reported.

Every distinct output is checked against the brute-force oracle after
the timed region (see oracle_check.py).  `attempted` counts the operations
(sweep rows, selfcheck cells) of one pass, and `failed` those of them that
are missing, hard-failed or off the oracle beyond the selfcheck tolerance:
each distinct output counts once, however often the timed loop repeated
it, so the counts depend on the seed alone and not on the machine's speed.
`correct` is false when any output was missing, malformed, a traceback,
or differed between identical invocations.  The last line of standard
output is one JSON object; lines above it are for people.  A results
file with the workload definition, environment, every pass and every
check lands in photonbench/results/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import runpy
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from layers import METRICS, Tracer  # noqa: E402
from oracle_check import check  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_SAMPLES = 30

# The speed of a shared machine drifts by tens of percent over minutes, so
# every timed sample is paired with this reference, run right after it: a
# fresh interpreter that imports numpy and runs a fixed pure-Python loop,
# the same mix of start-up, import and bytecode as a CLI call, with no
# photonstat code, so no change to the program can move it.  Reported
# times are scaled to a machine on which the reference takes
# REFERENCE_NOMINAL_S.
REFERENCE = ("import numpy\ns = 0.0\nfor i in range(1, 400000):\n"
             "    s += (i % 7) * 0.5 / i\n")
REFERENCE_NOMINAL_S = 0.3
MIN_PASSES = 3
CALL_TIMEOUT_S = 60

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment(seed):
    import numpy

    try:
        from photonstat import kernels
        impl = getattr(kernels, "_impl", kernels)
        kernel = impl.__name__
    except ImportError:
        kernel = "none (photonstat.kernels absent)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_module": kernel,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": os.getloadavg()[0],
        "seed": seed,
    }


# ------------------------------------------------------------ end to end

def _spawn(cmd):
    """Run `cmd` to completion, returning (exit code, stdout, stderr).

    The waits block: Popen's timeout polling sleeps in steps of up to
    50 ms and would round every measured wall time up to them.  A
    watchdog kills a child that outlives CALL_TIMEOUT_S instead.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=_child_env()) as p:
        watchdog = threading.Timer(CALL_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            out, err = p.communicate()
        finally:
            watchdog.cancel()
    return p.returncode, out, err


def _cli(inv):
    return _spawn([sys.executable, "-m", "photonstat", *inv.argv])


def _seconds(cmd):
    start = time.perf_counter()
    code, _, err = _spawn(cmd)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{cmd[1:]} failed:\n{err}")
    return elapsed


def run_e2e(invs, seconds, record):
    # warm-up: a fresh checkout compiles its bytecode here, untimed
    record([_cli(inv) for inv in invs], counted=False)
    walls, refs, setup, setup_refs = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outs = [_cli(inv) for inv in invs]
        walls.append(time.perf_counter() - t0)
        record(outs, counted=True)
        refs.append(_seconds([sys.executable, "-c", REFERENCE]))
        # import timings spread evenly over the run, each paired with the
        # reference taken just before it
        if (len(setup) < SETUP_SAMPLES and time.perf_counter() - start
                >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(_seconds([sys.executable, "-c",
                                   "import photonstat.cli"]))
            setup_refs.append(refs[-1])

    def scaled(times, ref_times):
        return REFERENCE_NOMINAL_S * statistics.median(
            t / r for t, r in zip(times, ref_times))

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"wall_s": scaled(walls, refs),
               "setup_s": scaled(setup, setup_refs),
               "peak_rss_mb": peak_kb / 1024.0}
    detail = {"pass_wall_s": walls, "reference_s": refs,
              "setup_raw_s": setup, "setup_reference_s": setup_refs,
              "raw_median_wall_s": statistics.median(walls),
              "raw_median_setup_s": statistics.median(setup),
              "speed_factor": statistics.median(refs) / REFERENCE_NOMINAL_S}
    return metrics, detail


# ----------------------------------------------------------------- traced

def _in_process(inv):
    """`python -m photonstat <argv>` inside this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["photonstat", *inv.argv]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runpy.run_module("photonstat", run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as a failed invocation, not raised
        err.write(traceback.format_exc())
        code = 1
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def run_traced(invs, seconds, workload, record):
    tracer = Tracer()
    record([_in_process(inv) for inv in invs], counted=False)  # warm-up
    plain, traced, per_pass, shares = [], [], [], {}
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        record([_in_process(inv) for inv in invs], counted=False)
        plain.append(time.perf_counter() - t0)

        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            outs = [_in_process(inv) for inv in invs]
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        record(outs, counted=True)
        out_bytes = sum(len(o[1].encode()) for o in outs)
        per_pass.append(tracer.pass_metrics(out_bytes))
        for span, s in tracer.self_s.items():
            shares[span] = shares.get(span, 0.0) + s
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    detail = {
        "traced_pass_s": traced, "untraced_pass_s": plain,
        "self_time_share": {k: v / sum(traced)
                            for k, v in sorted(shares.items())},
        "unavailable": tracer.unavailable(),
        "unexercised": tracer.unexercised(workload),
    }
    return metrics, detail


# ----------------------------------------------------------------- checks

class Outputs:
    """Distinct outputs per invocation and how often each was seen."""

    def __init__(self, invs):
        self.invs = invs
        self.seen = [{} for _ in invs]  # (code, stdout, stderr) -> count

    def record(self, outs, counted):
        for seen, out in zip(self.seen, outs):
            seen[out] = seen.get(out, 0) + counted

    def verdicts(self):
        out = []
        for inv, seen in zip(self.invs, self.seen):
            for (code, stdout, stderr), n in seen.items():
                data = stdout.encode()
                out.append((inv, hashlib.sha256(data).hexdigest(), n,
                            check(inv, code, stdout, stderr), len(data)))
        return out


def summarize(invs, outputs):
    attempted = failed = runs = 0
    worst_dev, worst_at, hard, checks = 0.0, "", [], []
    for i, inv in enumerate(invs):
        if len(outputs.seen[i]) > 1:
            hard.append(f"invocation {i}: {len(outputs.seen[i])} different "
                        "outputs from identical invocations")
    for inv, sha, n, v, nbytes in outputs.verdicts():
        attempted += v.attempted
        failed += v.failed
        runs += v.attempted * n
        hard.extend(v.hard)
        if v.worst_dev >= worst_dev:
            worst_dev, worst_at = v.worst_dev, v.worst_at
        checks.append({"argv_head": list(inv.argv[:5]), "sha256": sha,
                       "bytes": nbytes, "times_seen": n, **v.as_dict()})
    return {"correct": not hard, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "operations_run": runs,
            "worst_rel_dev": worst_dev, "worst_at": worst_at,
            "hard_failures": hard[:20], "outputs": checks}


# ------------------------------------------------------------------- main

def run_workload(name, seed, seconds, trace, env, rows=None):
    """Run one workload; returns the results-file document."""
    invs = build(name, seed, rows)
    outputs = Outputs(invs)
    if trace:
        metrics, detail = run_traced(invs, seconds, name, outputs.record)
        units = {k: v[0] for k, v in METRICS.items()}
    else:
        metrics, detail = run_e2e(invs, seconds, outputs.record)
        units = E2E_UNITS
    checks = summarize(invs, outputs)
    return {
        "workload": name, "why": WORKLOADS[name], "seed": seed,
        "seconds": seconds, "trace": trace, "environment": env,
        "invocations": [list(inv.argv) for inv in invs],
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
        "layer_moves": ({k: v[3] for k, v in METRICS.items()}
                        if trace else None),
        "detail": detail, "checks": checks,
    }


def report_lines(doc):
    c = doc["checks"]
    mode = "traced in-process" if doc["trace"] else "end-to-end"
    lines = [f"== {doc['workload']} ({mode}, seed {doc['seed']}): "
             f"{doc['why']}"]
    width = max(len(k) for k in doc["metrics"])
    for k, m in doc["metrics"].items():
        lines.append(f"  {k:<{width}}  {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':<{width}}  {c['failed_frac']:.6g} ratio "
                 f"({c['failed']} of {c['attempted']} operations, each checked"
                 f" once; {c['operations_run']} run in timed passes)")
    lines.append(f"  oracle: {len(c['outputs'])} distinct outputs checked, "
                 f"worst rel dev {c['worst_rel_dev']:.3e} at {c['worst_at']}")
    if not doc["trace"]:
        d = doc["detail"]
        lines.append(f"  unscaled medians: wall {d['raw_median_wall_s']:.6g} s,"
                     f" setup {d['raw_median_setup_s']:.6g} s; machine speed"
                     f" factor {d['speed_factor']:.4g} ({len(d['pass_wall_s'])}"
                     " passes)")
    for problem in c["hard_failures"]:
        lines.append(f"  HARD FAILURE: {problem}")
    if doc["trace"]:
        d = doc["detail"]
        top = sorted(d["self_time_share"].items(), key=lambda kv: -kv[1])
        lines.append("  self-time share of traced time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in top if v >= 0.005))
        for metric, why in sorted(d["unavailable"].items()):
            lines.append(f"  MISSING {metric}: {why} (reported as 0)")
        for span in d["unexercised"]:
            lines.append(f"  UNEXERCISED span {span}: no calls on "
                         f"{doc['workload']}")
    return lines


def run_all(args):
    """Each workload in a fresh benchmark process, so that neither peak
    memory nor warm in-process caches carry over between workloads."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, out, err = _spawn([
            sys.executable, __file__, "--workload", name, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace)])
        lines = out.splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        sys.stderr.write(err)
        if code != 0:
            return code
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "photonstat" / "__init__.py").is_file():
        print(f"error: photonstat sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       env)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"BENCH_{args.workload}_seed{args.seed}_"
                      f"{'trace' if args.trace else 'e2e'}.json")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print("\n".join(report_lines(doc)))
    print(f"  results: {path.relative_to(ROOT)}")
    c = doc["checks"]
    print(json.dumps({"correct": c["correct"], "attempted": c["attempted"],
                      "failed": c["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
