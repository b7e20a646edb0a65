"""Fast self-test of the benchmark at a tiny size.

    python3 photonbench/selftest.py

Checks that BENCHMARK.json matches the metric and workload tables, that
every metric is reported with its unit, that every span a workload must
exercise saw calls and no layer is missing at this commit, and that the
benchmark refuses to run where the photonstat sources are absent.
Exits 1 and lists the problems when any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_ROWS = 3


def check_manifest(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [(w["name"], w["why"]) for w in spec["workloads"]] \
            != list(WORKLOADS.items()):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            != [(k, v[0], v[1]) for k, v in METRICS.items()]:
        problems.append("BENCHMARK.json per_layer differs from layers.py")


def check_metrics(doc, units, problems):
    where = f"{doc['workload']} trace={doc['trace']}"
    for name, unit in units.items():
        m = doc["metrics"].get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            problems.append(f"{where}: metric {name} [{unit}] absent or bad")
    if not doc["checks"]["correct"]:
        problems.append(f"{where}: hard failures "
                        f"{doc['checks']['hard_failures']}")


def check_refuses_without_sources(problems):
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("results",
                                                      "__pycache__"))
        p = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "selfcheck",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or p.stdout.strip():
        problems.append("run.py did not refuse a tree without src/")


def main():
    problems = []
    check_manifest(problems)
    sys.path.insert(0, str(run.SRC))
    env = run.environment(seed=1)

    doc = run.run_workload("sweep-fock", 1, 0, 0, env, rows=TINY_ROWS)
    check_metrics(doc, run.E2E_UNITS, problems)
    for name in WORKLOADS:
        doc = run.run_workload(name, 1, 0, 1, env, rows=TINY_ROWS)
        check_metrics(doc, {k: v[0] for k, v in METRICS.items()}, problems)
        for span in doc["detail"]["unexercised"]:
            problems.append(f"{name}: span {span} saw no calls")
        for metric, why in doc["detail"]["unavailable"].items():
            problems.append(f"{name}: {metric} {why}")
    check_refuses_without_sources(problems)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
