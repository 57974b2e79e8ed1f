"""Every function and every usage-error raise under src/symrank is reached from the CLI.

A fixed list of small invocations runs in-process through `cli.main` under
one `sys.settrace` pass.  The global trace function sees every Python frame
entered: each function, method, nested function and lambda compiled from
the package's sources must be among those frames, except the names in
ALLOWED, each with the reason it may stay uncalled.  Comprehensions and
generator expressions are not counted: from Python 3.12 the compiler
inlines list, dict and set comprehensions into the function that holds
them, so only the function itself has a frame on every supported version.

The same pass traces the exception events of the package's frames, with
their line events switched off: a `raise` statement that runs gives its own
frame an exception event on one of its lines.  Every `raise` in the
sources must run so, except the raises of SELF_CHECKS, which report a
failed proof (exit 1) or a bug rather than a rejected input, and the raises
in ALLOWED_RAISES, each with its reason.  Line events on the raises' lines
would say the same at about three times the cost (0.9 s against 0.35 s for
CALLS with Python 3.11 on a 2-core x86 machine), and could also come from
the test of a one-line `if ...: raise`.

The trace measures coverage, not reachability: a function or raise it
misses is dead only once no CLI input reaches it.  When one does, its
invocation belongs in CALLS, or for a rejection in test_cli's
MALFORMED_INPUTS, which CALLS includes.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import random
import sys
import types
from pathlib import Path

import pytest

import symrank
from symrank.cli import main

from test_cli import MALFORMED_INPUTS

SOURCES = Path(symrank.__file__).resolve().parent

# a value type's __eq__, __hash__ and __repr__ give the tests and a debugger
# equality, sets and readable failures; the CLI needs none of them
_VALUE_DUNDERS = {
    "designs.HadamardMatrix": ("__eq__", "__repr__"),
    "designs.SymmetricDesign": ("__eq__", "__repr__"),
    "ensemble.BipartiteGraph": ("__eq__", "__hash__", "__repr__"),
    "ensemble.Tournament": ("__eq__", "__hash__"),
    "exactfield.QuadExt": ("__eq__", "__hash__", "__repr__"),
    "families.SetFamily": ("__eq__", "__repr__"),
    "linalg.Matrix": ("__eq__", "__repr__"),
}

ALLOWED = {
    f"{cls}.{name}": "value semantics for the tests and for debugging"
    for cls, names in _VALUE_DUNDERS.items()
    for name in names
} | {
    "exactfield.QuadExt.__setattr__": "the immutability guard: only an assignment calls it",
    "linalg.Matrix.entries": "bench/tracing.py reads the entries of every ranked matrix",
}

# exceptions that report a failed proof or a bug, never a rejected input
SELF_CHECKS = {"VerificationError", "ConstructionFailedError", "ArithmeticError"}

ALLOWED_RAISES = {
    ("exactfield.QuadExt.__setattr__", "AttributeError"): "the immutability guard",
    ("exactfield.solve_monic_quadratic", "NoRealRootError"): (
        "theorem2's discriminant is never negative, but without the guard a "
        "negative one would give wrong roots silently"
    ),
}

_INT_CSV = "1,2,3,4\n2,4,6,8\n1,0,1,0\n0,1,0,1/2\n"  # rank 3 < k = 4: certificate, then Bareiss
_QUAD_CSV = "1,1+1*sqrt(2),0,1\n1-1*sqrt(2),-1,0,1-1*sqrt(2)\n0,0,1,2\n1,2,3,4\n"
# fast cells (a, a+b*sqrt(d), b = 0 included) beside cells only parse_scalar reads
_MIXED_CSV = "1,1/2+1*sqrt(2),2*sqrt(2)\n1+1*sqrt(2), 4 ,1+0*sqrt(3)\n3/2,1 + 1*sqrt(2),5\n"
# e_1 .. e_5 of six columns and e_1 + ... + e_4: the certificate finds 4 > SMALL_RANK
# pivots before it fails, so Bareiss first sorts the rows and columns by bit size,
# then runs on packed rows to the end
_SORTED_CSV = "1,0,0,0,0,0\n0,1,0,0,0,0\n0,0,1,0,0,0\n0,0,0,1,0,0\n0,0,0,0,1,0\n1,1,1,1,0,0\n"


def _growing_csv(cell) -> str:
    """Five rows of 30-bit entries and the sum of the first two, one cell(a) per
    entry a: the mod-p pass finds 5 of 6 pivots, and after the first packed
    step a slot could pass 2^63, so the packed steps hand over to the list loop."""
    rng = random.Random(5)
    rows = [[rng.randrange(-(2**30), 2**30) for _ in range(6)] for _ in range(5)]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


_GRAPH = {"m": 2, "n": 3, "edges": [[1, 1], [2, 3]]}
_FAMILY = {"n": 6, "sets": [[1, 2], [1, 3], [1, 4]]}
_NOT_BISECTION_CLOSED = {"n": 4, "sets": [[1, 2], [3, 4]]}

# (argv, files the run reads: name -> text, expected exit code); "{dir}" is the work directory
CALLS = [
    (["rank", "--in", "{dir}/int.csv"], {"int.csv": _INT_CSV}, 0),
    # a Z[sqrt d] rank with k > 3 takes the modular pass before Bareiss
    (["rank", "--in", "{dir}/quad.csv"], {"quad.csv": _QUAD_CSV}, 0),
    (["rank", "--in", "{dir}/mixed.csv"], {"mixed.csv": _MIXED_CSV}, 0),
    (["rank", "--in", "{dir}/sorted.csv"], {"sorted.csv": _SORTED_CSV}, 0),
    (
        ["rank", "--in", "{dir}/sorted.csv"],
        {"sorted.csv": _SORTED_CSV.replace("1", "1+1*sqrt(2)")},
        0,
    ),
    # ... on packed rows, until the entries outgrow the slots
    (["rank", "--in", "{dir}/growing.csv"], {"growing.csv": _growing_csv(str)}, 0),
    (
        ["rank", "--in", "{dir}/growing.csv"],
        {"growing.csv": _growing_csv(lambda a: f"{a}{a:+d}*sqrt(2)")},
        0,
    ),
    (["mu"], {}, 0),
    (["mu", "--theta", "1/3", "--alpha", "1+1*sqrt(2)", "--beta", "2"], {}, 0),
    # 0 - (1 + sqrt 2) is QuadExt.__rsub__, and 1 / (3 + 2 sqrt 2) QuadExt.__rtruediv__
    (["mu", "--alpha", "1", "--beta", "2", "--table", "1", "0", "1+1*sqrt(2)", "1"], {}, 0),
    (["tournament", "--n", "3", "--seed", "2"], {}, 0),
    (
        ["tournament", "--n", "5", "--seed", "1", "--values", "1,2,1+1*sqrt(3),1/2,3",
         "--matrix-out", "{dir}/t.csv"],
        {},
        0,
    ),
    (
        ["bigraph", "--in", "{dir}/g.json", "--alpha", "1", "--beta", "3",
         "--matrix-out", "{dir}/b.csv"],
        {"g.json": json.dumps(_GRAPH)},
        0,
    ),
    (["theorem1-verify", "--max-m", "2", "--max-n", "3"], {}, 0),
    (["theorem1-verify", "--samples", "12", "--max-m", "3", "--max-n", "3", "--seed", "1"], {}, 0),
    (["theorem2", "--theta", "1/3", "--n", "4", "--sign", "-"], {}, 0),
    (["hadamard", "--construction", "sylvester", "--k", "2", "--matrix-out", "{dir}/h.csv"], {}, 0),
    (["hadamard", "--construction", "paley", "--q", "7"], {}, 0),
    (["design", "--design", "fano"], {}, 0),
    (["design", "--design", "complement-fano"], {}, 0),
    (["design", "--design", "paley-hadamard", "--q", "7"], {}, 0),
    (["design", "--design", "sylvester-hadamard", "--k", "3"], {}, 0),
    (["design-rank", "--design", "fano", "--alpha", "1", "--beta", "2"], {}, 0),
    # an irrational mu^2 is rejected, naming the value
    (["design-rank", "--design", "fano", "--beta", "1+1*sqrt(2)"], {}, 2),
    (["onebytwo", "--k-minus-lambda", "6", "--bound", "10"], {}, 0),
    (["family-build", "--kind", "sunflower", "--n", "6", "--out", "{dir}/report.json"], {}, 0),
    (["family-build", "--kind", "fano"], {}, 0),
    (["family-build", "--kind", "hadamard", "--order", "8"], {}, 0),
    (["family-check", "--in", "{dir}/f.json"], {"f.json": json.dumps(_FAMILY)}, 0),
    (["family-check", "--in", "{dir}/f.json"], {"f.json": json.dumps(_NOT_BISECTION_CLOSED)}, 1),
    (["family-search", "--n", "6", "--seed-kind", "sunflower", "--budget", "5"], {}, 0),
    (
        ["family-search", "--n", "6", "--seed-file", "{dir}/f.json"],
        {"f.json": json.dumps(_FAMILY)},
        0,
    ),
    (["random-rank-stats", "--n", "4", "--samples", "2"], {}, 0),
] + [
    (argv, {} if text is None else {"input": text}, 2)
    for argv, text, _ in (param.values for param in MALFORMED_INPUTS)
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _code_objects():
    """(qualified name, code) of every function in the sources.

    Qualified names start at the module, as in "linalg.Matrix.rank"; a
    lambda's name carries its line.
    """

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = const.co_name
            if name.startswith("<") and name != "<lambda>":  # comprehension or genexpr
                yield from walk(const, prefix)
            elif const.co_flags & inspect.CO_NEWLOCALS:  # function or lambda
                qualname = prefix + name
                if name == "<lambda>":
                    qualname += f"@{const.co_firstlineno}"
                yield qualname, const
                yield from walk(const, qualname + ".<locals>.")
            else:  # class body
                yield from walk(const, prefix + name + ".")

    for path in sorted(SOURCES.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        yield from walk(code, path.stem + ".")


def defined_functions() -> dict:
    """{(file, first line, name): qualified name} of every function in the sources."""
    found = {}
    for qualname, code in _code_objects():
        key = _key(code)
        assert key not in found, f"{found[key]} and {qualname} share {key}"
        found[key] = qualname
    return found


def defined_raises() -> dict:
    """{(file, first line, last line): (qualified name, exception name)} of every raise.

    The qualified name is that of the function holding the raise, named as
    in defined_functions; the exception name is the raised class as written.
    """
    found = {}

    def visit(node, path, scope, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = ast.unparse(exc) if exc is not None else "(re-raise)"
                found[str(path), child.lineno, child.end_lineno] = (scope, name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                visit(child, path, qualname, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope, prefix + child.name + ".")
            else:
                visit(child, path, scope, prefix)

    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path, path.stem, path.stem + ".")
    return found


def _clear_caches() -> None:
    """Empty the package's function caches, whose hits would hide the functions."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("symrank."):
            for value in vars(module).values():
                if getattr(value, "__module__", None) == module.__name__:
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()


def run_calls(calls, workdir: Path) -> tuple[set, set]:
    """Run each invocation; return the keys of every code object entered, and
    the (file, line) of every exception event in a frame of the sources."""
    entered = {}
    raised = set()
    files = {str(path) for path in SOURCES.glob("*.py")}

    def local(frame, event, arg):
        if event == "exception":
            raised.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):  # the global trace function sees only "call"
        code = frame.f_code
        entered[id(code)] = code
        if code.co_filename not in files:
            return None
        frame.f_trace_lines = False
        return local

    _clear_caches()
    previous = sys.gettrace()
    for argv, inputs, expected in calls:
        for name, text in inputs.items():
            (workdir / name).write_text(text, encoding="utf-8")
        argv = [
            arg.replace("{dir}", str(workdir)).replace("{path}", str(workdir / "input"))
            for arg in argv
        ]
        with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(
            io.StringIO()
        ):
            sys.settrace(trace)
            try:
                code = main(argv)
            finally:
                sys.settrace(previous)
        out = stdout.getvalue()
        assert code == expected, argv
        if code == 2:
            assert out == "", argv
            continue
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        json.loads(out, parse_constant=_reject_constant)
    return {_key(code) for code in entered.values()}, raised


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[set, set]:
    """run_calls over CALLS, once for both tests."""
    return run_calls(CALLS, tmp_path_factory.mktemp("calls"))


def test_every_function_is_reached_from_the_cli(traced):
    defined = defined_functions()
    gone = sorted(set(ALLOWED) - set(defined.values()))
    assert not gone, "allowlisted names that no longer exist: " + ", ".join(gone)
    reached, _ = traced
    unreached = sorted(
        name for key, name in defined.items() if key not in reached and name not in ALLOWED
    )
    assert not unreached, "no CLI call reaches " + ", ".join(unreached)


def test_every_usage_error_raise_is_reached_from_the_cli(traced):
    raises = defined_raises()
    gone = sorted(set(ALLOWED_RAISES) - set(raises.values()))
    assert not gone, "allowlisted raises that no longer exist: " + ", ".join(map(str, gone))
    _, raised = traced
    unraised = sorted(
        f"{scope}:{first} {name}"
        for (path, first, last), (scope, name) in raises.items()
        if name not in SELF_CHECKS
        and (scope, name) not in ALLOWED_RAISES
        and not any((path, line) in raised for line in range(first, last + 1))
    )
    assert not unraised, "no CLI call runs the raise at " + ", ".join(unraised)
