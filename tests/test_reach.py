import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REACH = ROOT / "tools" / "reach.py"
LAYERS = ROOT / "certbench" / "layers.py"

# a decorated def starts at its first decorator, and a def inside a def
# gets <locals> in its qualified name
MODULE = '''import functools


def plain():
    def inner():
        return 1
    return inner()


class K:
    @property
    def p(self):
        return 1


@functools.lru_cache(maxsize=None)
@functools.wraps(plain)
def cached(x):
    return [x for _ in range(1)]
'''


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def test_every_def_is_reached_or_allowed():
    # the gate runs in a fresh interpreter: module-level calls count only
    # when the profile hook is in place before equilines is first imported
    done = subprocess.run([sys.executable, str(REACH)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    allowed = load_reach().ALLOWED_UNREACHED
    assert f"{len(allowed)} unreached" in done.stdout
    assert all(reason for reason in allowed.values())


def test_defs_match_code_objects_by_file_first_line_and_name(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    defs = load_reach().package_defs(tmp_path)
    assert sorted(defs.values()) == ["sample.K.p", "sample.cached", "sample.plain",
                                     "sample.plain.<locals>.inner"]
    codes = code_objects(compile(MODULE, str(path.resolve()), "exec"))
    matched = {(c.co_filename, c.co_firstlineno, c.co_name): c for c in codes}
    assert set(defs) <= set(matched)
    if sys.version_info >= (3, 11):
        assert all(defs[key] == f"sample.{matched[key].co_qualname}" for key in defs)


def test_reach_imports_only_the_standard_library():
    tree = ast.parse(REACH.read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= set(sys.stdlib_module_names), imported - set(sys.stdlib_module_names)


def hooked_names():
    """The module.function names of TIMED and COUNTED in certbench/layers.py,
    read with ast so that nothing there is imported."""
    tables = {}
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TIMED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"TIMED", "COUNTED"}
    return {f"{m}.{a}" for table in tables.values() for m, attrs in table.items() for a in attrs}


def test_allowlist_holds_a_benchmark_hook_only_while_the_benchmark_hooks_it():
    # an entry kept for a benchmark hook goes when the hook goes: the
    # allowlist's hooked entries are exactly the unreached hooked names
    reach = load_reach()
    claimed = {name for name, reason in reach.ALLOWED_UNREACHED.items()
               if reach.HOOKED in reason}
    hooked = hooked_names() & reach.ALLOWED_UNREACHED.keys()
    assert claimed - hooked == set(), "no longer hooked: delete these or give another reason"
    assert hooked - claimed == set(), "hooked: say so in their reasons"
