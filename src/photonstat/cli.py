"""Command-line front end: single-state reports, parameter sweeps, self-check.

Exit codes: 0 ok, 1 usage error, 2 undefined state, 3 accuracy failure,
4 self-check failure.  Output documents are deterministic: identical
invocations produce byte-identical bytes.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

from . import __version__
from .criteria import (
    CRITERIA_TOKENS,
    CriteriaReport,
    DegenerateA3,
    evaluate_all,
    moment_order,
)
from .exceptions import AccuracyError, UndefinedStateError
from .moments import StateModification
from .oracle import DEFAULT_SUITE_STATES, equivalence_suite
from .states import FAMILIES, CutoffPolicy, build_state

UNDEF = "UNDEF"
DEGENERATE = "DEGENERATE"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (not argparse's default 2) with one line
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _row(param, report, selection, ell_max):
    """One output row: param, mean, the selected criteria, flags."""
    return {"param": param, "mean": report.mean,
            **report.cells(ell_max, selection),
            "flags": ";".join(report.flags)}


def _json_cell(value):
    if isinstance(value, DegenerateA3):
        return DEGENERATE
    if isinstance(value, int):
        return value
    value = float(value)
    if math.isnan(value):
        return UNDEF
    return value


def _render(value):
    """Full round-trip decimal rendering; tokens for undefined/degenerate."""
    if isinstance(value, str):
        return value
    cell = _json_cell(value)
    return cell if isinstance(cell, str) else repr(cell)


def _policy_dict(policy):
    return {"eps_tail": policy.eps_tail, "rel_tol": policy.rel_tol,
            "max_cutoff": policy.max_cutoff,
            "max_moment_order": policy.max_moment_order}


def _mod_dict(mod):
    return {"kind": mod.kind.value, "count": mod.count}


def _csv_table(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_render(value) for value in row.values()])
    return buf.getvalue()


def _emit(document, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document)


# ---------------------------------------------------------------- criteria

def cmd_criteria(family, param, mod, ell_max, selection, fmt, policy,
                 out_path=None):
    dist = build_state(family, param, policy)
    report = evaluate_all(dist, mod, ell_max)
    if report.undefined:
        raise UndefinedStateError(
            f"state annihilated: {family}({param!r}) does not survive "
            f"{mod.kind.value} {mod.count}")
    if fmt == "csv":
        _emit(_csv_table([_row(param, report, selection, ell_max)]), out_path)
        return 0
    doc = {
        "tool": "photonstat",
        "version": __version__,
        "command": "criteria",
        "family": family,
        "param": param,
        "modification": _mod_dict(mod),
        "ell_max": ell_max,
        "policy": _policy_dict(policy),
        "cutoff": dist.cutoff,
        "tail_bound": dist.tail_bound,
        "mean": _json_cell(report.mean),
    }
    for key, value in report.cells(ell_max, selection).items():
        doc[key] = _json_cell(value)
    if isinstance(report.a3, DegenerateA3):
        doc["A3_detail"] = {"det_m": report.a3.det_m,
                            "det_mu": report.a3.det_mu}
    doc["flags"] = list(report.flags)
    _emit(json.dumps(doc, indent=2) + "\n", out_path)
    return 0


# ------------------------------------------------------------------- sweep

def cmd_sweep(family, grid, mod, ell_max, selection, fmt, policy,
              out_path=None):
    reports = []
    for param in grid:
        try:
            dist = build_state(family, param, policy)
        except AccuracyError:
            reports.append(CriteriaReport(math.nan, math.nan,
                                          flags=("accuracy_failure",)))
        else:
            reports.append(evaluate_all(dist, mod, ell_max))
    rows = [_row(param, report, selection, ell_max)
            for param, report in zip(grid, reports)]
    if fmt == "json":
        doc = {
            "tool": "photonstat",
            "version": __version__,
            "command": "sweep",
            "sweep": {
                "family": family,
                "params": list(grid),
                "modification": _mod_dict(mod),
                "ell_max": ell_max,
                "criteria": list(selection),
                "format": fmt,
                "policy": _policy_dict(policy),
            },
            "rows": [{k: v if k == "flags" else _json_cell(v)
                      for k, v in row.items()} for row in rows],
        }
        _emit(json.dumps(doc, indent=2) + "\n", out_path)
    else:
        _emit(_csv_table(rows), out_path)
    inaccurate = ["accuracy_failure" in r.flags for r in reports]
    if all(r.undefined or bad for r, bad in zip(reports, inaccurate)):
        return 3 if any(inaccurate) else 2
    return 0


# --------------------------------------------------------------- selfcheck

def cmd_selfcheck(states, tol_subtract, tol_add, out_path=None):
    report = equivalence_suite(states=states, tol_subtract=tol_subtract,
                               tol_add=tol_add)
    by_combo = {}
    for cell in report.cells:
        key = (cell.family, cell.param, cell.mod)
        group = by_combo.setdefault(key, [])
        group.append(cell)
    for (family, param, mod), group in by_combo.items():
        worst = max(c.rel_dev for c in group)
        status = "ok" if all(c.passed for c in group) else "FAIL"
        print(f"{family}({param!r}) {mod}: cells={len(group)} "
              f"max_rel_dev={worst:.3e} {status}")
    worst = report.worst
    print(f"selfcheck: {len(report.cells)} cells, worst rel dev "
          f"{worst.rel_dev:.3e} at {worst.family}({worst.param!r}) "
          f"{worst.mod} {worst.quantity}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_text())
    if report.passed:
        print("selfcheck PASS")
        return 0
    for cell in report.failures():
        print(f"FAIL {cell.line()}")
    print("selfcheck FAIL")
    return 4


# ----------------------------------------------------------------- parsing

def _parse_param_range(text, parser):
    parts = text.split(":")
    if len(parts) != 3:
        parser.error("--param-range must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        parser.error("--param-range values must be numeric")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        parser.error("--param-range values must be finite")
    if step <= 0 or stop < start:
        parser.error("--param-range needs step > 0 and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-6)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_criteria(text, parser):
    tokens = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for tok in tokens:
        if tok not in CRITERIA_TOKENS:
            parser.error(f"unknown criterion {tok!r}; choose from "
                         + ", ".join(CRITERIA_TOKENS))
    if not tokens:
        parser.error("--criteria must select at least one criterion")
    return tokens


def _load_config(path, parser):
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"config file {path} must hold a JSON object")
    return config


def _resolved(args, config, key, fallback):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return fallback


def _policy_from(args, config, parser, ladder_order):
    """The cutoff policy, its check order raised (never lowered) to the
    ladder order the report will read."""
    try:
        policy = CutoffPolicy(
            eps_tail=float(_resolved(args, config, "eps_tail", 1e-12)),
            rel_tol=float(_resolved(args, config, "rel_tol", 1e-10)),
            max_cutoff=int(_resolved(args, config, "max_cutoff", 4096)),
            max_moment_order=int(
                _resolved(args, config, "max_moment_order", 12)),
        )
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    if ladder_order > policy.max_moment_order:
        policy = replace(policy, max_moment_order=ladder_order)
    return policy


def _ell_max_from(args, config, parser):
    try:
        ell_max = int(_resolved(args, config, "ell_max", 3))
    except (TypeError, ValueError):
        parser.error("--ell-max must be an integer")
    if ell_max < 1:
        parser.error("--ell-max must be at least 1")
    return ell_max


def _modification_from(args, parser):
    if args.subtract is not None and args.add is not None:
        parser.error("--subtract and --add are mutually exclusive")
    if args.add is not None:
        return StateModification.add(args.add)
    if args.subtract is not None:
        return StateModification.subtract(args.subtract)
    return StateModification.identity()


def _check_params(family, params, parser):
    for param in params:
        if not math.isfinite(param):
            parser.error(f"{family} parameter must be finite")
        if param < 0:
            parser.error(f"{family} parameter must be nonnegative")
        if family == "fock" and int(param) != param:
            parser.error("fock parameters must be nonnegative integers")
    return tuple(int(p) if family == "fock" else p for p in params)


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser():
    parser = _Parser(prog="photonstat",
                     description="Nonclassicality criteria for "
                                 "photon-subtracted and photon-added states")
    parser.add_argument("--version", action="version",
                        version=f"photonstat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mod=True):
        if with_mod:
            p.add_argument("--subtract", type=_nonneg_int, metavar="N",
                           help="number of photons to subtract")
            p.add_argument("--add", type=_nonneg_int, metavar="M",
                           help="number of photons to add")
            p.add_argument("--ell-max", type=int, dest="ell_max",
                           help="highest generalized-Mandel order (default 3)")
            p.add_argument("--criteria", help="comma list from: "
                           + ",".join(CRITERIA_TOKENS))
            p.add_argument("--format", choices=("csv", "json"))
            p.add_argument("--eps-tail", type=float, dest="eps_tail",
                           help="tail-mass bound for the cutoff (default 1e-12)")
            p.add_argument("--max-cutoff", type=int, dest="max_cutoff",
                           help="hard cutoff cap (default 4096)")
        p.add_argument("--out", metavar="FILE",
                       help="write the document to FILE instead of stdout")
        p.add_argument("--config", metavar="FILE",
                       help="JSON config file with flag defaults")

    crit = sub.add_parser("criteria",
                          help="criteria report for a single state")
    crit.add_argument("--family", required=True, choices=FAMILIES)
    crit.add_argument("--param", required=True, type=float,
                      help="family parameter (|alpha|^2, nbar, N, or r)")
    add_common(crit)

    sweep = sub.add_parser("sweep", help="criteria table over a parameter grid")
    sweep.add_argument("--family", required=True, choices=FAMILIES)
    sweep.add_argument("--param", type=float, action="append",
                       help="grid point; repeat for several")
    sweep.add_argument("--param-range", dest="param_range",
                       metavar="START:STOP:STEP",
                       help="inclusive arithmetic grid")
    add_common(sweep)

    check = sub.add_parser("selfcheck",
                           help="shortcut-vs-oracle equivalence suite")
    check.add_argument("--tol", type=float,
                       help="override both path tolerances")
    check.add_argument("--families",
                       help="comma list of families to check "
                            "(default: all suite states)")
    add_common(check, with_mod=False)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _load_config(getattr(args, "config", None), parser)
        if args.command in ("criteria", "sweep"):
            mod = _modification_from(args, parser)
            ell_max = _ell_max_from(args, config, parser)
            policy = _policy_from(args, config, parser,
                                  mod.count + moment_order(ell_max))
            sweep = args.command == "sweep"
            grid = tuple(args.param or ()) if sweep else (args.param,)
            if sweep and args.param_range:
                grid += _parse_param_range(args.param_range, parser)
            if not grid:
                parser.error("sweep needs --param or --param-range")
            grid = _check_params(args.family, grid, parser)
            selection = _parse_criteria(
                _resolved(args, config, "criteria", ",".join(CRITERIA_TOKENS)),
                parser)
            fmt = _resolved(args, config, "format", "csv" if sweep else "json")
            if sweep:
                return cmd_sweep(args.family, grid, mod, ell_max, selection,
                                 fmt, policy, args.out)
            return cmd_criteria(args.family, grid[0], mod, ell_max,
                                selection, fmt, policy, args.out)
        # selfcheck
        tol = _resolved(args, config, "tol", None)
        tol_subtract = tol if tol is not None else 1e-9
        tol_add = tol if tol is not None else 1e-8
        states = DEFAULT_SUITE_STATES
        if args.families:
            wanted = {tok.strip() for tok in args.families.split(",")}
            unknown = wanted - set(FAMILIES)
            if unknown:
                parser.error(f"unknown families: {', '.join(sorted(unknown))}")
            states = tuple(s for s in DEFAULT_SUITE_STATES if s[0] in wanted)
            if not states:
                parser.error("no suite states match --families")
        return cmd_selfcheck(states, tol_subtract, tol_add, args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UndefinedStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, OverflowError) as exc:
        print(f"error: accuracy failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
