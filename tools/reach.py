"""Reachability gate for src/equilines: which of its defs the program runs.

The entries are the package import, every command through cli.main and
three API controls: a wrong spectrum claim of S54, a relabelled and
switched S54, and a drop-line system. Each runs under a sys.setprofile
hook, installed before equilines is first imported so that module-level
calls count, and with the package's lru_caches cleared first, so that
each entry is credited with every def it runs. A code object is matched
to its ast def by file, first line (its first decorator's, if any) and
name; co_qualname would need Python 3.11.

Prints each def with the entries that reach it, or its reason for being
unreached, and exits 1 unless the unreached defs are exactly the keys of
ALLOWED_UNREACHED. Standard library and equilines only, in a fresh
interpreter:

    python3 tools/reach.py
"""

import ast
import contextlib
import functools
import importlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("certificate", "golay", "construct", "exactlin", "seidel", "search", "cli")

# the reason of an entry that a benchmark hook holds; a test checks these
# entries against the TIMED and COUNTED names of certbench/layers.py
HOOKED = "certbench/layers.py hooks it by name"
ORACLE = "a test oracle in Python ints"
ALLOWED_UNREACHED = {
    "exactlin.pivots": f"{ORACLE}: the Bareiss steps behind bareiss_det",
    "exactlin.bareiss_det": f"{ORACLE}: exact determinants for char_poly; {HOOKED}",
    "exactlin.char_poly": f"{ORACLE}: det(xI - m) by interpolation, which "
                          f"certify_spectrum proves without it; {HOOKED}",
    "exactlin.poly_mul": f"{ORACLE}: polynomial arithmetic of char_poly",
    "exactlin.poly_eval": f"{ORACLE}: polynomial arithmetic of char_poly",
    "exactlin.poly_from_roots": f"{ORACLE}: polynomial arithmetic of char_poly",
    "exactlin._synthetic_div": f"{ORACLE}: polynomial arithmetic of char_poly",
    "seidel.find_isomorphism": f"test helper on canonical_graph_form's labellings; {HOOKED}",
    "seidel.enumerate_isomorphisms": "test helper on canonical_graph_form's labellings; "
                                     f"{HOOKED}",
    "cli.report_without_timings": "the determinism helper: tests compare reports with it",
}

# argv of cli.main, "{out}" standing for a report path, and its exit code
CLI_RUNS = (
    (("golay",), 0),
    (("construct", "--emit-vectors"), 0),
    (("spectrum",), 0),
    (("aut",), 0),
    (("maximality",), 0),
    (("maximality", "--drop-line", "1"), 0),
    (("maximality", "--drop-line", "27"), 0),
    (("maximality", "--drop-line", "54"), 0),
    (("subscan", "--orders", "52"), 0),
    (("all", "--out", "{out}"), 0),
    (("all", "--corrupt-generator"), 1),
)


def package_defs(package):
    """{(file, first line, name): qualified name} of every def in the
    package directory, the name prefixed by its module and qualified as
    co_qualname would (a def inside a def adds <locals>)."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[str(path), first, child.name] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(Path(package).glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), f"{path.stem}.")
    return defs


def run_entry(fn):
    """The code objects called while fn runs, the package's caches cleared first."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "equilines":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return called


def cli_run(mods, argv, code):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        returned = mods.cli.main([a.format(out=os.path.join(tmp, "report.json")) for a in argv])
    if returned != code:
        raise AssertionError(f"equilines {' '.join(argv)} exited {returned}, not {code}")


def wrong_claim(mods):
    """S54's claim with 13 replaced by 15: a value changes, not only a
    multiplicity, so the annihilator chain does not vanish and nullity_at
    names the failed premises."""
    s = mods.cli.Pipeline(mods.cli.RunConfig()).seidel_matrix
    claim = mods.seidel.SpectrumClaim.make({-5: 36, 7: 6, 11: 8, 15: 2},
                                           quadratic=mods.cli.S54_SPECTRUM.quadratic)
    cert = mods.seidel.certify_spectrum(s, claim)
    if cert.passed or cert.details["first_failure"]["check"] != "char_poly_matches":
        raise AssertionError("the wrong S54 claim did not fail char_poly_matches")


def relabel(mods):
    """S54 permuted and switched keeps its signed group and its switching form."""
    seidel = mods.seidel
    s = mods.cli.Pipeline(mods.cli.RunConfig()).seidel_matrix
    rng = random.Random(5)
    perm = rng.sample(range(s.n), s.n)
    t = seidel.switch(seidel.permute(s, perm), [rng.choice((1, -1)) for _ in range(s.n)])
    if t == s:
        raise AssertionError("the relabelling left S54 as it was")
    if seidel.signed_automorphism_group(t).order != mods.cli.S54_AUT_ORDER:
        raise AssertionError("the relabelled S54 lost its signed group")
    if seidel.switching_canonical_form(t) != seidel.switching_canonical_form(s):
        raise AssertionError("the relabelled S54 changed its switching form")


def drop_line(mods):
    """S54 less its first member is extendible: check_extendibility finds a witness."""
    final = mods.cli.Pipeline(mods.cli.RunConfig()).final
    report = mods.search.check_extendibility(mods.construct.LineSystem(vectors=final.vectors[1:]))
    if not report.extendible:
        raise AssertionError("the drop-line system found no witness")


def main():
    if any(name.partition(".")[0] == "equilines" for name in sys.modules):
        raise SystemExit("equilines is imported already: run reach.py in a fresh interpreter")
    sys.path.insert(0, str(SRC))
    by_entry = {"import": run_entry(lambda: [importlib.import_module(f"equilines.{name}")
                                             for name in MODULES])}
    mods = SimpleNamespace(**{name: sys.modules[f"equilines.{name}"] for name in MODULES})
    if {argv[0] for argv, _ in CLI_RUNS} != set(mods.cli.COMMANDS):
        raise AssertionError("CLI_RUNS must run every command of cli.COMMANDS")
    for argv, code in CLI_RUNS:
        by_entry["equilines " + " ".join(argv)] = run_entry(
            functools.partial(cli_run, mods, argv, code))
    for control in (wrong_claim, relabel, drop_line):
        by_entry[f"api {control.__name__}"] = run_entry(functools.partial(control, mods))

    defs = package_defs(SRC / "equilines")
    resolved = functools.lru_cache(maxsize=None)(lambda f: str(Path(f).resolve()))
    reached = {name: [] for name in defs.values()}
    for entry, codes in by_entry.items():
        for code in codes:
            name = defs.get((resolved(code.co_filename), code.co_firstlineno, code.co_name))
            if name:
                reached[name].append(entry)

    for name, entries in sorted(reached.items()):
        print(f"{name:<48} "
              f"{', '.join(entries) or 'UNREACHED: ' + ALLOWED_UNREACHED.get(name, 'no reason')}")
    unreached = {name for name, entries in reached.items() if not entries}
    print(f"\n{len(reached) - len(unreached)} of {len(reached)} defs reached, "
          f"{len(unreached)} unreached")
    unexpected = sorted(unreached - ALLOWED_UNREACHED.keys())
    stale = sorted(ALLOWED_UNREACHED.keys() - unreached)
    if unexpected:
        print(f"unreached and not allowed (call them or delete them): {', '.join(unexpected)}")
    if stale:
        print(f"allowed but reached or gone (drop them from ALLOWED_UNREACHED): {', '.join(stale)}")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
