import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equilines import cli, construct, golay, seidel

SRC = Path(__file__).resolve().parent.parent / "src"


def dot(u, v):
    """Scaled inner product, in Python ints, of two members or a member and a vector."""
    u, v = (x.coords if isinstance(x, construct.LineVector) else x for x in (u, v))
    return sum(a * b for a, b in zip(u, v))


def subprocess_report(out, hash_seed, *argv):
    """report_without_timings of `equilines *argv --out out`, run in a
    fresh interpreter under PYTHONHASHSEED=hash_seed; CalledProcessError
    unless it exits 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "equilines.cli", *argv, "--out", str(out)],
                   env=env, check=True)
    return cli.report_without_timings(json.loads(out.read_text()))


@pytest.fixture(scope="session")
def code():
    return golay.generate_code(golay.build_generator())


@pytest.fixture(scope="session")
def asche(code):
    return construct.asche_system(code)


@pytest.fixture(scope="session")
def final54(asche):
    return construct.final_system(asche)


@pytest.fixture(scope="session")
def s54(final54):
    return seidel.seidel_from(final54)


@pytest.fixture(scope="session")
def s54_window(s54):
    """The sub-scan's window for S54, from its certified spectrum claim."""
    assert seidel.certify_spectrum(s54, cli.S54_SPECTRUM).passed
    return cli.S54_SPECTRUM.integer_window()


def clear_switching_caches():
    """Empty seidel's two lru_caches, so that the next signed group or
    switching form is searched afresh."""
    seidel.signed_automorphism_group.cache_clear()
    seidel._switching_search.cache_clear()


@pytest.fixture
def fresh_switching_caches():
    clear_switching_caches()
    yield
    clear_switching_caches()
