"""Command-line front end: single-state reports, parameter sweeps, self-check.

Exit codes: 0 ok, 1 usage error, 2 undefined state, 3 accuracy failure,
4 self-check failure.  Output documents are deterministic: identical
invocations produce byte-identical bytes.
"""

import atexit
import errno
import gc
import math
import os
import stat
import sys
import types
from itertools import groupby

from . import __version__
from .criteria import (
    CRITERIA_TOKENS,
    CriteriaReport,
    DegenerateA3,
    column_names,
    evaluate_all,
    moment_order,
)
from .exceptions import AccuracyError, UndefinedStateError
from .moments import StateModification
from .states import (
    DEFAULT_POLICY,
    FAMILIES,
    CutoffPolicy,
    build_state,
    checked_param,
)

UNDEF = "UNDEF"
DEGENERATE = "DEGENERATE"

# the keys _resolved reads from a config file, each named as its flag's
# dest
CONFIG_KEYS = ("ell_max", "criteria", "format", "tol",
               *DEFAULT_POLICY._fields)

# longest --param-range grid: a sweep keeps every row until it writes
# them, so its memory grows with the grid; 10**5 default Fock rows peak
# at 91 MB of the process's RSS as CSV and 348 MB as JSON
MAX_GRID_POINTS = 10 ** 5

# a state or a moment beyond reach: past float64, or a pmf or table too
# large for this process; a sweep flags its row accuracy_failure, and any
# other command exits 3
_BEYOND_REACH = (AccuracyError, MemoryError)


def _row(param, report, names):
    """One output row, its cells encoded: param, mean, the named columns
    (UNDEF where the report has none), flags."""
    cells = report.cells
    return {"param": param, "mean": _cell(report.mean),
            **{name: _cell(cells.get(name, math.nan)) for name in names},
            "flags": ";".join(report.flags)}


def _cell(value):
    """A report value as printed: the float, UNDEF for NaN, DEGENERATE for
    a DegenerateA3."""
    if isinstance(value, DegenerateA3):
        return DEGENERATE
    return UNDEF if math.isnan(value) else value


def _mod_dict(mod):
    return {"kind": mod.kind.value, "count": mod.count}


def _csv_table(rows):
    # no column name, flag token, float repr or token holds a comma, a
    # quote or a newline, so no cell needs quoting; str(float) is its repr
    lines = [",".join(rows[0]) + "\n"]
    lines += [",".join(map(str, row.values())) + "\n" for row in rows]
    return "".join(lines)


def _claim_out(path):
    """Check while resolving that --out can be written: open path, creating
    it if missing and never truncating it.  Returns path if this call
    created it (to be removed if the run never writes it), else None;
    ValueError naming the reason if it cannot be opened.  A named pipe is
    not opened, as closing it would end its reader's input."""
    if not path:
        return None
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            created = path
        except FileExistsError:
            if stat.S_ISFIFO(os.stat(path).st_mode):
                return None
            fd = os.open(path, os.O_WRONLY)
            created = None
    except OSError as exc:
        raise ValueError(
            f"cannot write {path}: {exc.strerror or exc}") from None
    os.close(fd)
    return created


def _emit(document, out_path=None):
    """Write document (text, or a dict as indented JSON) to out_path or,
    without one, to stdout.  Output that cannot be written exits 1."""
    if isinstance(document, dict):
        import json  # only JSON documents and config files need it
        document = json.dumps(document, indent=2) + "\n"
    stdout = sys.stdout
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(document)
        elif stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        elif not hasattr(stdout, "buffer"):  # a text sink, as io.StringIO
            stdout.write(document)
            stdout.flush()
        else:
            # every count is checked: unbuffered, the text layer would drop
            # the rest of a write that its reader closed midway
            data = memoryview(document.encode(stdout.encoding, stdout.errors))
            while data:
                count = stdout.buffer.write(data)
                if not count:  # None: a nonblocking stdout is full
                    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                data = data[count:]
            stdout.flush()
    except OSError as exc:
        if stdout and not out_path:  # the exit flush then cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        print(f"photonstat: error: cannot write {out_path or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(1) from None


# ---------------------------------------------------------------- criteria

def cmd_criteria(family, param, mod, ell_max, selection, fmt, policy,
                 out_path=None):
    dist = build_state(family, param, policy)
    report = evaluate_all(dist, mod, ell_max)
    if report.undefined:
        raise UndefinedStateError(
            f"state annihilated: {family}({param!r}) does not survive "
            f"{mod.kind.value} {mod.count}")
    names = column_names(ell_max, selection)
    if fmt == "csv":
        _emit(_csv_table([_row(param, report, names)]), out_path)
        return 0
    doc = {
        "tool": "photonstat",
        "version": __version__,
        "command": "criteria",
        "family": family,
        "param": param,
        "modification": _mod_dict(mod),
        "ell_max": ell_max,
        "policy": policy._asdict(),
        "cutoff": dist.cutoff,
        "tail_bound": dist.tail_bound,
        "mean": _cell(report.mean),
    }
    for name in names:
        doc[name] = _cell(report.cells[name])
    for value in report.cells.values():
        if isinstance(value, DegenerateA3):  # A3, selected or not
            doc["A3_detail"] = value._asdict()
    doc["flags"] = list(report.flags)
    _emit(doc, out_path)
    return 0


# ------------------------------------------------------------------- sweep

def cmd_sweep(family, grid, mod, ell_max, selection, fmt, policy,
              out_path=None):
    rows = []
    names = column_names(ell_max, selection)
    defined = inaccurate = False  # some row is defined; some row failed
    for param in grid:
        # a state or a moment beyond reach flags its row, not the sweep
        try:
            report = evaluate_all(build_state(family, param, policy), mod,
                                  ell_max)
        except _BEYOND_REACH:
            report = CriteriaReport(math.nan, {}, ("accuracy_failure",))
            inaccurate = True
        else:
            defined = defined or not report.undefined
        rows.append(_row(param, report, names))
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
                "policy": policy._asdict(),
            },
            "rows": rows,
        }
        _emit(doc, out_path)
    else:
        _emit(_csv_table(rows), out_path)
    if defined:
        return 0
    return 3 if inaccurate else 2


# --------------------------------------------------------------- selfcheck

def cmd_selfcheck(states, tol, out_path=None):
    from .oracle import EquivalenceReport, equivalence_suite
    report = equivalence_suite(states=states, tol=tol)
    lines = []
    # the suite writes each (family, param, modification) as one block
    for (family, param, mod), group in groupby(
            report.cells, lambda c: (c.family, c.param, c.mod)):
        block = EquivalenceReport(list(group))
        status = "ok" if block.passed else "FAIL"
        lines.append(f"{family}({param!r}) {mod}: cells={len(block.cells)} "
                     f"max_rel_dev={block.worst.rel_dev:.3e} {status}\n")
    worst = report.worst
    lines.append(f"selfcheck: {len(report.cells)} cells, worst rel dev "
                 f"{worst.rel_dev:.3e} at {worst.family}({worst.param!r}) "
                 f"{worst.mod} {worst.quantity}\n")
    _emit("".join(lines))
    if out_path:
        _emit(report.to_text(), out_path)
    # the failing cells and the verdict follow the --out report
    lines = [f"FAIL {cell.line()}\n" for cell in report.failures()]
    verdict = "PASS" if report.passed else "FAIL"
    _emit("".join(lines) + f"selfcheck {verdict}\n")
    return 0 if report.passed else 4


# ----------------------------------------------------------------- parsing
# each helper raises ValueError(message) for an input it refuses

def _parse_param_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--param-range must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError("--param-range values must be numeric") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("--param-range values must be finite")
    if step <= 0 or stop < start:
        raise ValueError("--param-range needs step > 0 and stop >= start")
    span = (stop - start) / step + 1e-6
    if not span < MAX_GRID_POINTS:  # also inf
        raise ValueError(
            f"--param-range has more than {MAX_GRID_POINTS} points")
    return tuple(start + i * step for i in range(math.floor(span) + 1))


def _parse_criteria(text):
    tokens = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for tok in tokens:
        if tok not in CRITERIA_TOKENS:
            raise ValueError(f"unknown criterion {tok!r}; choose from "
                             + ", ".join(CRITERIA_TOKENS))
    if not tokens:
        raise ValueError("--criteria must select at least one criterion")
    return tokens


def _load_config(path):
    if not path:
        return {}
    import json
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    for key in config:
        # a key no command reads is a typo, not a default; a key that only
        # another command reads is kept, so one file serves every command
        if key not in CONFIG_KEYS:
            raise ValueError(f"config file {path}: unknown key {key!r}")
    return config


def _resolved(args, config, key, fallback):
    """The flag's value, else the config file's read as the flag's text
    would be (by the type of fallback), else fallback."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in config:
        return fallback
    try:
        return type(fallback)(str(config[key]))
    except ValueError:
        raise ValueError(
            f"config {key}: invalid value {config[key]!r}") from None


def _policy_from(args, config, ladder_order):
    """The cutoff policy, its check order raised (never lowered) to the
    ladder order the report will read."""
    policy = CutoffPolicy(**{
        key: _resolved(args, config, key, default)
        for key, default in DEFAULT_POLICY._asdict().items()})
    if ladder_order > policy.max_moment_order:
        policy = policy._replace(max_moment_order=ladder_order)
    return policy


def _modification_from(args):
    if args.subtract is not None and args.add is not None:
        raise ValueError("--subtract and --add are mutually exclusive")
    if args.add is not None:
        return StateModification.add(args.add)
    return StateModification.subtract(args.subtract or 0)


def _request(args):
    """The command to run and its arguments, from the parsed flags and the
    config file.  Where the library owns a rule, its check is called."""
    config = _load_config(args.config)
    if args.command == "selfcheck":
        from . import oracle  # selfcheck, the one command that runs it
        tol = oracle.checked_tol(
            _resolved(args, config, "tol", oracle.DEFAULT_TOL))
        states = oracle.DEFAULT_SUITE_STATES  # every family has states
        if args.families is not None:
            wanted = {tok.strip() for tok in args.families.split(",")
                      if tok.strip()}
            if not wanted:
                raise ValueError("--families must name at least one family")
            unknown = wanted - set(FAMILIES)
            if unknown:
                raise ValueError(
                    f"unknown families: {', '.join(sorted(unknown))}")
            states = tuple(s for s in states if s[0] in wanted)
        return cmd_selfcheck, (states, tol, args.out)
    mod = _modification_from(args)
    sweep = args.command == "sweep"
    ell_max = _resolved(args, config, "ell_max", 3)
    policy = _policy_from(args, config, mod.count + moment_order(ell_max))
    grid = tuple(args.param or ()) if sweep else (args.param,)
    if sweep and args.param_range:
        grid += _parse_param_range(args.param_range)
    if not grid:
        raise ValueError("sweep needs --param or --param-range")
    grid = tuple(checked_param(args.family, p) for p in grid)
    selection = _parse_criteria(
        _resolved(args, config, "criteria", ",".join(CRITERIA_TOKENS)))
    fmt = _resolved(args, config, "format", "csv" if sweep else "json")
    if fmt not in ("csv", "json"):
        raise ValueError(f"invalid format {fmt!r} (choose from 'csv', 'json')")
    command = cmd_sweep if sweep else cmd_criteria
    return command, (args.family, grid if sweep else grid[0], mod, ell_max,
                     selection, fmt, policy, args.out)


# ------------------------------------------------------------ command line
# Each command's flags in help order: (flag, dest, converter, metavar,
# help), a converter being int, float, str or the tuple of the values the
# flag accepts.  parse_args keeps argparse's reading of a command line and
# its messages, the CLI's usage contract.

_HELP = ("-h/--help", None, None, "", "show this help message and exit")
_VERSION = ("--version", None, None, "", "show the program's version")
_TOP = {"-h": _HELP, "--help": _HELP, "--version": _VERSION}
_FLAGS = (  # of criteria and sweep; selfcheck reads the last two
    ("--subtract", "subtract", int, "N", "number of photons to subtract"),
    ("--add", "add", int, "M", "number of photons to add"),
    ("--ell-max", "ell_max", int, "ELL_MAX",
     "highest generalized-Mandel order (default 3)"),
    ("--criteria", "criteria", str, "CRITERIA",
     "comma list from: " + ",".join(CRITERIA_TOKENS)),
    ("--format", "format", str, "{csv,json}", "document format"),
    ("--eps-tail", "eps_tail", float, "EPS_TAIL",
     f"tail-mass bound for the cutoff (default {DEFAULT_POLICY.eps_tail})"),
    ("--max-cutoff", "max_cutoff", int, "MAX_CUTOFF",
     f"hard cutoff cap (default {DEFAULT_POLICY.max_cutoff})"),
    ("--out", "out", str, "FILE",
     "write the document to FILE instead of stdout"),
    ("--config", "config", str, "FILE", "JSON config file with flag defaults"),
)
_FAMILY = ("--family", "family", FAMILIES, "{" + ",".join(FAMILIES) + "}",
           "base state family")
# command: (help, flags, the flags it requires, the flag that repeats)
_COMMANDS = {
    "criteria": ("criteria report for a single state", (_FAMILY, (
        "--param", "param", float, "PARAM",
        "family parameter (|alpha|^2, nbar, N, or r)"), *_FLAGS),
        ("--family", "--param"), None),
    "sweep": ("criteria table over a parameter grid", (_FAMILY, (
        "--param", "param", float, "PARAM", "grid point; repeat for several"),
        ("--param-range", "param_range", str, "START:STOP:STEP",
         "inclusive arithmetic grid"), *_FLAGS), ("--family",), "--param"),
    "selfcheck": ("shortcut-vs-oracle equivalence suite", (
        ("--tol", "tol", float, "TOL",
         "override the relative tolerance of every cell"),
        ("--families", "families", str, "FAMILIES",
         "comma list of families to check (default: all suite states)"),
        *_FLAGS[-2:]), (), None),
}


def _option(word, flags):
    """None for a value; else (flag, its value after "=" or None), flag
    the one word names or alone begins, None if word looks like a flag
    but is none.  A negative number is a value."""
    if word[:1] != "-" or word == "-":
        return None
    head, eq, value = word.partition("=")
    if head in flags:
        return head, value if eq else None
    if word[1] == "-":
        found = [(f, value if eq else None) for f in flags
                 if f.startswith(head)]
    else:  # -hx is -h given x
        found = [(word[:2], word[2:])] if word[:2] in flags else []
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {word} could match "
                         + ", ".join(f for f, _ in found))
    if found:
        return found[0]
    whole, dot, frac = word[1:].partition(".")
    if dot:  # -.5, -0.5
        number = (not whole or whole.isdecimal()) and frac.isdecimal()
    else:  # -1
        number = whole.isdecimal()
    return None if number or " " in word else (None, None)


def _choice(name, value, choices):
    if value not in choices:
        raise ValueError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")


def _print_help_or_version(command, row, flag, value):
    """Print the help of command (of the program for None), or the
    version for row --version; ValueError if the flag is given a value."""
    if flag == "-h" and value:
        value = value.lstrip("h") or None  # -hh reads as -h -h
    if value is not None:
        raise ValueError(
            f"argument {row[0]}: ignored explicit argument {value!r}")
    if row is not _HELP:
        return _emit(f"photonstat {__version__}\n")
    if command:
        about, rows, required, _ = _COMMANDS[command]
        usage, rows = " ".join([command, *required, "[options]"]), (
            _HELP, *rows)
    else:
        about = ("Nonclassicality criteria for photon-subtracted and "
                 "photon-added states")
        usage = "[-h] [--version] {" + ",".join(_COMMANDS) + "} ..."
        rows = [(name, 0, 0, "", command[0])
                for name, command in _COMMANDS.items()] + [_HELP, _VERSION]
    _emit(f"usage: photonstat {usage}\n\n{about}\n\n" + "".join(
        f"  {flag.replace('/', ', ')} {metavar}".rstrip() + f"\n      {text}\n"
        for flag, _, _, metavar, text in rows))


def parse_args(argv):
    """argv's command and each dest of its flags as attributes, None where
    absent (a list for the flag that repeats), in one pass over argv; None
    once --help or --version has printed.  ValueError for a usage error,
    with argparse's message."""
    flags, values, leftover = _TOP, None, []
    i = 0
    while i < len(argv):
        word = argv[i]
        i += 1
        # "--" ends the flags; before the command, with a word after it,
        # it is the command
        if word == "--" and (values or i == len(argv)):
            leftover += argv[i - 1:]
            break
        option = _option(word, flags) if word != "--" else None
        if option is None and values is None:  # the command
            _choice("command", word, _COMMANDS)
            _, rows, required, repeated = _COMMANDS[word]
            flags = {"-h": _HELP, "--help": _HELP,
                     **{row[0]: row for row in rows}}
            values = {"command": word, **{
                row[1]: [] if row[0] == repeated else None for row in rows}}
            for later in argv[i:]:  # an ambiguous flag is the error
                if later == "--":  # wherever it stands, as argparse read
                    break  # every word before any flag acted
                _option(later, flags)
            continue
        if option is None or option[0] is None:
            leftover.append(word)
            continue
        flag, value = option
        row = flags[flag]
        if row[1] is None:
            return _print_help_or_version(values and values["command"],
                                          row, *option)
        if value is None:  # the next word, which must be a value
            if (i == len(argv) or argv[i] == "--"
                    or _option(argv[i], flags) is not None):
                raise ValueError(f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if type(row[2]) is tuple:
            _choice(flag, value, row[2])
        else:
            try:
                value = row[2](value)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid "
                                 f"{row[2].__name__} value: {value!r}"
                                 ) from None
        if flag == repeated:
            values[row[1]].append(value)
        else:
            values[row[1]] = value
    missing = ["command"] if values is None else [
        flag for flag in required if values[flags[flag][1]] is None]
    if missing:
        raise ValueError("the following arguments are required: "
                         + ", ".join(missing))
    if leftover:
        raise ValueError("unrecognized arguments: " + " ".join(leftover))
    return types.SimpleNamespace(**values)


def main(argv=None):
    created = None  # an --out file this run made and has not written yet
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            if args is None:  # --help or --version has printed
                return 0
            # first, so an --out that cannot be written costs no work
            created = _claim_out(args.out)
            command, request = _request(args)
        except ValueError as exc:  # an input the program refuses
            print(f"photonstat: error: {exc}", file=sys.stderr)
            return 1
        status = command(*request)
        created = None  # every command that returns has written its --out
        return status
    except SystemExit as exc:  # a document that cannot be written
        return int(exc.code or 0)
    except UndefinedStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _BEYOND_REACH as exc:
        reason = exc if isinstance(exc, AccuracyError) else "out of memory"
        print(f"error: accuracy failure: {reason}", file=sys.stderr)
        return 3
    finally:
        if created:
            try:
                os.remove(created)
            except OSError:
                pass


def entry():
    """The process entry point (console script and python -m photonstat)."""
    # At exit, gc.freeze moves every live object to the permanent
    # generation, which the interpreter's shutdown collection skips: that
    # pass would walk and free every object the run left alive (modules,
    # functions and classes by the thousand), whose memory the OS reclaims
    # anyway.  Safe because nothing the CLI leaves needs finalizing: files
    # are closed by `with`, --out is settled in main's finally, and the
    # interpreter flushes stdout and stderr on its own.  Unregistering
    # first keeps one handler however often entry runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    sys.exit(main())


if __name__ == "__main__":
    entry()
