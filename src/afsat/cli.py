"""The ``afsat`` command.

One binary, subcommand style:

* parse      - validate a framework file, emit a canonical form
* encode     - write the CNF encoding of a framework as DIMACS
* enumerate  - list preferred (or complete) extensions as JSON
* query      - credulous or skeptical acceptance of one argument
* generate   - random frameworks and benchmark suites
* classify   - the 64-row constraint-subset classification table
* bench      - timed runs of encoding/solver systems over a suite
* sat        - plain DIMACS solving (the bridge target for self-hosted
               external-solver setups)

``main`` builds the parser once per process, at its first call, and
reuses it afterwards. Help text, usage lines and error messages are
formatted when printed, so they follow the terminal width of that moment.

Exit codes: 0 success, 1 usage error, 2 input error, 3 budget exhausted,
130 interrupted. JSON output is stable: keys sorted, two-space indent,
fixed schemas, no timing fields unless requested, so identical inputs give
byte-identical output.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_text(text, path):
    if not path or path == "-":  # no --out, or stdout named as a path
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _read_af(args):
    from .fileformats import parse

    return parse(_read_text(args.input), args.format)


def _encoding(args):
    from .cnf import encoding_from_string

    return encoding_from_string(args.encoding)


def _session_factory(args):
    from .solver import builtin_session_factory, parse_backend

    backend = parse_backend(args.solver)
    if backend is None:
        raise ValueError(f"bad --solver value: {args.solver!r} "
                         "(expected 'builtin' or 'ext:<command>')")
    # each budget flag belongs to the one backend that honors it
    builtin = backend[0] == "builtin"
    if (args.solver_budget if builtin else args.conflict_budget) is not None:
        flag = "--solver-budget" if builtin else "--conflict-budget"
        raise ValueError(f"{flag} does not apply to --solver {args.solver}")
    if builtin:
        return builtin_session_factory(conflict_budget=args.conflict_budget)
    from .extsolver import external_session_factory

    return external_session_factory([backend[1]], budget_s=args.solver_budget)


class _QuotedLists(list):
    """Lists of strings each already quoted by ``_json_str``, which
    ``_json_text`` joins as they stand."""


def _json_text(value, newline="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)`` for str-keyed dicts,
    lists, tuples and scalars, in one recursive pass: with an indent the
    stdlib takes its pure-Python encoder, which costs more than the rest
    of printing a large result. ``newline`` is the line break plus the
    indent of the enclosing level."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if type(value) is _QuotedLists:  # the bulk of a large result
            deeper = inner + "  "
            body = ("," + inner).join([
                "[" + deeper + ("," + deeper).join(names) + inner + "]"
                if names else "[]" for names in value])
        else:
            try:  # a list of strings in one call
                body = ("," + inner).join(map(_json_str, value))
            except TypeError:
                body = ("," + inner).join([_json_text(item, inner)
                                           for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_json_str(key) + ": " + _json_text(value[key], inner)
             for key in sorted(value)]) + newline + "}"
    if isinstance(value, str):
        return _json_str(value)
    return json.dumps(value)


def _print_json(payload):
    print(_json_text(payload))


# ----------------------------------------------------------------------
# subcommands

def cmd_parse(args):
    from .fileformats import serialize

    af = _read_af(args)
    if args.to == "json":
        _print_json({
            "arguments": list(af.arguments),
            "attacks": sorted([af.name(i), af.name(j)] for i, j in af.attacks),
        })
    else:
        sys.stdout.write(serialize(af, args.to))
    return EXIT_OK


def cmd_encode(args):
    from .cnf import encode, standard_comments, to_dimacs

    af = _read_af(args)
    encoding = _encoding(args)
    formula = encode(af, encoding, nonempty=not args.without_nonempty)
    source = None if args.input == "-" else args.input
    text = to_dimacs(formula, standard_comments(af, encoding, source=source))
    _write_text(text, args.out)
    return EXIT_OK


def cmd_enumerate(args):
    from .enumeration import (credulous_accept, credulous_answer,
                              enumerate_complete, enumerate_preferred,
                              skeptical_answer)

    af = _read_af(args)
    encoding = _encoding(args)
    # an unknown query name is an input error before any solving
    credulous_at = {name: af.index(name) for name in args.credulous}
    skeptical_at = {name: af.index(name) for name in args.skeptical}
    run = (enumerate_preferred if args.semantics == "preferred"
           else enumerate_complete)
    # one factory, so one budget pool, for the run and all its queries
    factory = _session_factory(args)
    result = run(af, encoding, factory)
    exit_code = EXIT_OK if result.complete else EXIT_BUDGET

    payload = {
        "semantics": result.semantics,
        "encoding": result.encoding.value,
        "complete": result.complete,
        "num_extensions": len(result.extensions),
        "stats": {
            "sat_calls": result.stats["sat_calls"],
            "inner_iterations": result.stats["inner_iterations"],
            "outer_iterations": result.stats["outer_iterations"],
        },
    }
    if not args.stats_only:
        # each name quoted once, by 1-based index; a quoted name sorts as
        # the name does, since '"' sorts below every name character
        quoted = (None,) + tuple(map(_json_str, af.arguments))
        payload["extensions"] = _QuotedLists(
            [sorted(map(quoted.__getitem__, s)) for s in result.extensions])
    if args.timing:
        payload["stats"]["wall_time_s"] = round(result.stats["wall_time_s"], 6)

    queries = {}
    if credulous_at:
        credulous = queries["credulous"] = {}
        for name, a in credulous_at.items():
            # a SAT call only where the run's extensions cannot tell
            credulous[name] = credulous_answer(result, a)
            if credulous[name] is None:
                credulous[name] = credulous_accept(af, a, encoding, factory)
            if credulous[name] is None:
                exit_code = EXIT_BUDGET
    if skeptical_at:
        queries["skeptical"] = {name: skeptical_answer(result, a)
                                for name, a in skeptical_at.items()}
    if queries:
        payload["queries"] = queries

    _print_json(payload)
    return exit_code


def cmd_query(args):
    from .enumeration import (credulous_accept, enumerate_preferred,
                              skeptical_answer)

    af = _read_af(args)
    encoding = _encoding(args)
    index = af.index(args.argument)
    factory = _session_factory(args)
    if args.mode == "credulous":
        accepted = credulous_accept(af, index, encoding, factory)
        complete = accepted is not None
    else:
        result = enumerate_preferred(af, encoding, factory)
        accepted = skeptical_answer(result, index)
        complete = result.complete
    _print_json({"argument": args.argument, "mode": args.mode,
                 "encoding": encoding.value, "accepted": accepted})
    return EXIT_OK if complete else EXIT_BUDGET


def cmd_generate(args):
    from . import generators
    from .fileformats import serialize_apx

    single = args.k is not None
    method = args.method or generators.METHOD_PROBABILITY
    mode = "single mode (--k)" if single else "suite mode (no --k)"
    # each flag belongs to the single-instance methods, or suite mode (None),
    # that read it; given anywhere else, it is an error, not ignored
    seeded = (generators.METHOD_PROBABILITY, generators.METHOD_COUNT, None)
    for flag, value, readers in (
            ("--p-att", args.p_att, (generators.METHOD_PROBABILITY,)),
            ("--n-att", args.n_att, (generators.METHOD_COUNT,)),
            ("--seed", args.seed, seeded)):
        if value is not None and (method if single else None) not in readers:
            where = f"--method {method}" if single else mode
            raise ValueError(f"{flag} does not apply to {where}")
    seed = 0 if args.seed is None else args.seed
    unread = ((("--scale", args.scale is not None),
               ("--no-count-classes", args.no_count_classes),
               ("--no-extremes", args.no_extremes)) if single
              else (("--method", args.method is not None),))
    for flag, given in unread:
        if given:
            raise ValueError(f"{flag} does not apply to {mode}")
    if single:
        if method == generators.METHOD_PROBABILITY:
            if args.p_att is None:
                raise ValueError("--p-att is required for the probability method")
            param = args.p_att
        elif method == generators.METHOD_COUNT:
            param = args.n_att  # None draws the count at random
        else:
            param = None
        af = generators.generate(method, args.k, param, seed)
        _write_text(serialize_apx(af), args.out)
        return EXIT_OK

    if not args.out or args.out == "-":
        raise ValueError("suite mode needs --out DIRECTORY (or pass --k "
                         "for a single instance)")
    scale = 1.0 if args.scale is None else args.scale
    classes = generators.suite_classes(
        scale=scale,
        include_count=not args.no_count_classes,
        include_extremes=not args.no_extremes)
    manifest = generators.build_suite(args.out, scale=scale,
                                      base_seed=seed, classes=classes)
    print(f"wrote {len(manifest['instances'])} instances to {args.out}")
    return EXIT_OK


def cmd_classify(args):
    from .constraints import classify_all
    from .fileformats import serialize_apx

    rows = []
    counts = {"weak": 0, "correct_non_redundant": 0, "redundant": 0}
    for c in classify_all(find_witnesses=not args.no_witnesses):
        counts[c.verdict] += 1
        row = {
            "terms": sorted(t.value for t in c.terms),
            "cardinality": len(c.terms),
            "verdict": c.verdict,
            "witness": None,
        }
        if c.witness is not None:
            af, lab = c.witness
            row["witness"] = {"framework_apx": serialize_apx(af),
                              "labelling": lab.as_dict(af)}
        rows.append(row)

    if args.text:
        for row in rows:
            terms = "+".join(row["terms"]) or "(none)"
            line = f"{row['cardinality']}  {terms:<60} {row['verdict']}"
            if row["witness"]:
                attacks = row["witness"]["framework_apx"].replace("\n", " ").strip()
                lab = ",".join(f"{a}:{l}" for a, l in
                               sorted(row["witness"]["labelling"].items()))
                line += f"  [{attacks} | {lab}]"
            print(line)
        print(f"counts: {counts['weak']} weak, "
              f"{counts['correct_non_redundant']} correct_non_redundant, "
              f"{counts['redundant']} redundant")
    else:
        _print_json({"rows": rows, "counts": counts})
    return EXIT_OK


def cmd_bench(args):
    import os

    from .bench import ipc_score, manifest_groups, run_bench, success_rate
    from .generators import load_manifest

    manifest = load_manifest(args.manifest)
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    if not systems:
        raise ValueError("no systems given")

    def progress(rec):
        detail = f": {rec.detail}" if rec.detail else ""
        print(f"  {rec.instance_id} {rec.system_id} {rec.outcome} "
              f"{rec.seconds:.2f}s{detail}", file=sys.stderr)

    records = run_bench(args.manifest, systems, args.budget, args.out,
                        repetitions=args.repetitions,
                        resume=not args.no_resume,
                        progress=progress if args.verbose else None)
    groups = manifest_groups(manifest, args.group_by)
    ipc = ipc_score(records, budget_s=args.budget, groups=groups)
    succ = success_rate(records, groups=groups)
    sys.stdout.write(ipc.to_text())
    sys.stdout.write(succ.to_text())
    base = os.path.splitext(args.out)[0]
    with open(base + ".ipc.csv", "w") as fh:
        fh.write(ipc.to_csv())
    with open(base + ".ipc.dat", "w") as fh:
        fh.write(ipc.to_gnuplot())
    with open(base + ".success.csv", "w") as fh:
        fh.write(succ.to_csv())
    return EXIT_OK


def cmd_sat(args):
    from .cnf import parse_dimacs
    from .solver import BudgetExhausted, builtin_session_factory

    formula = parse_dimacs(_read_text(args.input))
    solver = builtin_session_factory(args.conflict_budget)(formula)
    try:
        model = solver.solve()
    except BudgetExhausted:
        print("s UNKNOWN")
        return EXIT_BUDGET
    if model is None:
        print("s UNSATISFIABLE")
        return EXIT_OK
    print("s SATISFIABLE")
    lits = [v if model[v] else -v for v in range(1, formula.num_vars + 1)]
    lits.append(0)
    for start in range(0, len(lits), 32):
        print("v " + " ".join(str(l) for l in lits[start:start + 32]))
    return EXIT_OK


# ----------------------------------------------------------------------
# parser assembly

def _add_input_args(sub):
    sub.add_argument("input", help="framework file, or - for stdin")
    sub.add_argument("--format", choices=("auto", "apx", "tgf"),
                     default="auto", help="input format (default: sniff)")


def _add_solver_args(sub):
    sub.add_argument("--encoding", default="C2",
                     help="encoding id: C1, C1a, C1b, C1c, C2, C3 (default C2)")
    sub.add_argument("--solver", default="builtin",
                     help="'builtin' or 'ext:<command>' for an external "
                          "DIMACS solver (default builtin)")
    sub.add_argument("--conflict-budget", type=int, default=None,
                     help="conflicts for the whole run, built-in solver")
    sub.add_argument("--solver-budget", type=float, default=None,
                     help="wall-clock seconds for the whole run, external "
                          "solver")


def _add_parse_args(p):
    _add_input_args(p)
    p.add_argument("--to", choices=("json", "apx", "tgf"), default="json",
                   help="output form (default json)")


def _add_encode_args(p):
    _add_input_args(p)
    p.add_argument("--encoding", default="C2",
                   help="encoding id (default C2)")
    p.add_argument("--without-nonempty", action="store_true",
                   help="omit the non-empty-extension clause")
    p.add_argument("--out", default=None,
                   help="write to a file, not stdout ('-' is stdout)")


def _add_enumerate_args(p):
    _add_input_args(p)
    _add_solver_args(p)
    p.add_argument("--semantics", choices=("preferred", "complete"),
                   default="preferred")
    p.add_argument("--stats-only", action="store_true",
                   help="omit the extension list from the output")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the stats (output is then "
                        "no longer byte-reproducible)")
    p.add_argument("--query-credulous", action="append", default=[],
                   dest="credulous", metavar="ARG",
                   help="also report credulous acceptance")
    p.add_argument("--query-skeptical", action="append", default=[],
                   dest="skeptical", metavar="ARG",
                   help="also report skeptical acceptance (in every "
                        "preferred extension, under either --semantics)")


def _add_query_args(p):
    _add_input_args(p)
    _add_solver_args(p)
    p.add_argument("--mode", choices=("credulous", "skeptical"),
                   required=True)
    p.add_argument("--argument", required=True, metavar="NAME")


def _add_generate_args(p):
    p.add_argument("--out", default=None,
                   help="suite directory, or output file in single mode "
                        "('-' is stdout)")
    p.add_argument("--scale", type=float, default=None,
                   help="suite size factor (default 1.0 = 2816 instances)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default 0)")
    p.add_argument("--no-count-classes", action="store_true",
                   help="suite: skip the count-model classes")
    p.add_argument("--no-extremes", action="store_true",
                   help="suite: skip the empty/full singletons")
    p.add_argument("--k", type=int, default=None,
                   help="single mode: argument count")
    p.add_argument("--method",
                   choices=("probability", "count", "empty", "full"),
                   default=None, help="single mode: attack model")
    p.add_argument("--p-att", type=float, default=None,
                   help="single mode: attack probability")
    p.add_argument("--n-att", type=int, default=None,
                   help="single mode: exact attack count (omit to draw it)")


def _add_classify_args(p):
    p.add_argument("--text", action="store_true",
                   help="aligned text instead of JSON")
    p.add_argument("--no-witnesses", action="store_true",
                   help="skip the weakness witness search")


def _add_bench_args(p):
    p.add_argument("--manifest", required=True,
                   help="suite manifest (file or directory)")
    p.add_argument("--systems", required=True,
                   help="comma list like C2:builtin,C3:builtin,"
                        "C2:ext:/path/solver")
    p.add_argument("--budget", type=float, default=900.0,
                   help="wall-clock seconds per run (default 900; use 60 "
                        "for desk-scale runs)")
    p.add_argument("--out", required=True, help="results CSV (appended)")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--group-by", choices=("k", "class", "method", "all"),
                   default="k")
    p.add_argument("--no-resume", action="store_true",
                   help="ignore existing rows in the results CSV")
    p.add_argument("--verbose", action="store_true",
                   help="print each finished run to stderr")


def _add_sat_args(p):
    p.add_argument("input", help="DIMACS file, or - for stdin")
    p.add_argument("--conflict-budget", type=int, default=None)


# name -> (help, function adding the subcommand's arguments, handler), in
# the order --help lists them
COMMANDS = {
    "parse": ("validate and canonicalize a framework",
              _add_parse_args, cmd_parse),
    "encode": ("emit the CNF encoding as DIMACS",
               _add_encode_args, cmd_encode),
    "enumerate": ("enumerate preferred or complete extensions",
                  _add_enumerate_args, cmd_enumerate),
    "query": ("acceptance of a single argument",
              _add_query_args, cmd_query),
    "generate": ("random frameworks and benchmark suites",
                 _add_generate_args, cmd_generate),
    "classify": ("classify all 64 labelling-condition subsets",
                 _add_classify_args, cmd_classify),
    "bench": ("timed system comparison over a suite",
              _add_bench_args, cmd_bench),
    "sat": ("solve a DIMACS file directly",
            _add_sat_args, cmd_sat),
}


def build_parser():
    """The ``afsat`` parser."""
    parser = _Parser(prog="afsat",
                     description="SAT-based preferred-extension tools for "
                                 "abstract argumentation frameworks")
    parser.add_argument("--version", action="version",
                        version=f"afsat {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    for name, (help_text, add_args, handler) in COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        print("afsat: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyError as exc:
        print(f"afsat: error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, RuntimeError) as exc:
        # unreadable files, parse errors, bad parameter combinations and
        # external solver failures; an exhausted budget never gets here,
        # since every command that solves reports it in its own output
        print(f"afsat: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
