"""SAT-based computation of preferred extensions in abstract argumentation.

The package is organized as a small library:

* core, fileformats: framework model, semantics predicates, text formats
* oracle: exhaustive reference semantics for testing and small inputs
* constraints: the six labelling-condition terms and their classification
* cnf: the six CNF encodings, DIMACS in/out
* solver, extsolver: built-in CDCL engine and the external-solver bridge
* enumeration: preferred/complete enumeration and acceptance queries
* generators, bench: random instances, suites, and the benchmark harness
* cli: the ``afsat`` command

Submodules load lazily so the command-line entry point stays light.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "ArgumentationFramework": "core",
    "Labelling": "core",
    "IN": "core",
    "OUT": "core",
    "UNDEC": "core",
    "SIZE_CAP": "core",
    "SizeCapExceeded": "core",
    "is_conflict_free": "core",
    "is_acceptable": "core",
    "is_admissible": "core",
    "is_complete": "core",
    "is_preferred": "core",
    "is_complete_labelling": "core",
    "labelling_from_extension": "core",
    "extension_from_labelling": "core",
    "ParseError": "fileformats",
    "parse_apx": "fileformats",
    "serialize_apx": "fileformats",
    "parse_tgf": "fileformats",
    "serialize_tgf": "fileformats",
    "oracle_complete": "oracle",
    "oracle_preferred": "oracle",
    "oracle_complete_labellings": "oracle",
    "all_labellings": "oracle",
    "Term": "constraints",
    "TERMS": "constraints",
    "MINIMAL_CORRECT": "constraints",
    "satisfies_terms": "constraints",
    "classify_subset": "constraints",
    "classify_all": "constraints",
    "witness_battery": "constraints",
    "EncodingId": "cnf",
    "ENCODINGS": "cnf",
    "VarLayout": "cnf",
    "CnfFormula": "cnf",
    "encode": "cnf",
    "to_dimacs": "cnf",
    "parse_dimacs": "cnf",
    "satisfies": "cnf",
    "Solver": "solver",
    "Budget": "solver",
    "BudgetExhausted": "solver",
    "builtin_session_factory": "solver",
    "ExternalSession": "extsolver",
    "SolverProtocolError": "extsolver",
    "solve_external": "extsolver",
    "external_session_factory": "extsolver",
    "EnumerationResult": "enumeration",
    "enumerate_preferred": "enumeration",
    "enumerate_complete": "enumeration",
    "credulous_accept": "enumeration",
    "credulous_answer": "enumeration",
    "skeptical_accept": "enumeration",
    "skeptical_answer": "enumeration",
    "gen_probability": "generators",
    "gen_count": "generators",
    "gen_empty": "generators",
    "gen_full": "generators",
    "build_suite": "generators",
    "suite_classes": "generators",
    "load_manifest": "generators",
    "BenchRecord": "bench",
    "run_bench": "bench",
    "ipc_score": "bench",
    "success_rate": "bench",
    "manifest_groups": "bench",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{modname}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
