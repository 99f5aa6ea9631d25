"""Tests of the benchmark's own code: span arithmetic, the input generator,
relabelling, the fact checker, and agreement with BENCHMARK.json."""

import dataclasses
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import PER_LAYER, _traced_subscan, layer_metrics  # noqa: E402
from tracer import Span, Tracer, covered  # noqa: E402
from workloads import (FACTS, MODULES, Verdicts, check_certificates,  # noqa: E402
                       perturbed_inputs, relabel)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture(scope="module")
def mods():
    return SimpleNamespace(**{n: importlib.import_module(f"equilines.{n}") for n in MODULES})


def test_self_times_on_synthetic_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        clock.t = 1
        with tracer.span("a"):
            clock.t = 2
            with tracer.span("a.leaf"):
                clock.t = 3
            clock.t = 4
        clock.t = 5
        with tracer.span("b"):
            clock.t = 9
        clock.t = 10
    own = {tracer.spans[i].name: t for i, t in tracer.self_times().items()}
    assert own == {"root": 10 - 3 - 4, "a": 3 - 1, "a.leaf": 1, "b": 4}


def test_covered_counts_overlap_once_and_clips_to_parent():
    parent = Span(0, "p", 0.0, 10.0, None)
    kids = [Span(1, "x", 1.0, 5.0, 0), Span(2, "y", 3.0, 7.0, 0), Span(3, "z", 9.0, 12.0, 0)]
    assert covered(parent, kids) == 6.0 + 1.0


def test_subscan_phases_split_screen_from_confirmation():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def compute_spectrum():
        clock.t += 2

    confirm = tracer.timed("seidel.compute_spectrum", compute_spectrum)

    def fake_scan(s, orders=(50, 51), jobs=1, progress=None):
        for order in sorted(orders, reverse=True):
            clock.t += 10               # screen
            confirm()                   # one survivor per order
            progress(order, 100)
        clock.t += 3                    # classification
        return SimpleNamespace(hits=[(51, (0,), None)], screened_ambiguous=0)

    with tracer.span("iteration"):
        _traced_subscan(tracer, fake_scan)(None)
    m = layer_metrics(tracer)
    for order in (50, 51):
        assert m[f"search.subscan.o{order}.screen_s"] == 10
        assert m[f"search.subscan.o{order}.subsets_per_s"] == 10
        assert m[f"search.subscan.o{order}.survivors"] == 1
    assert (m["search.subscan.o51.hits"], m["search.subscan.o50.hits"]) == (1, 0)
    assert m["search.subscan.o52.subsets"] == 0
    assert m["search.subscan.confirm_s"] == 4
    assert m["search.subscan.classify_s"] == 3
    assert m["search.subscan.hit_ratio"] == 0.5
    assert m["trace.wall_s"] == 27 and m["trace.unaccounted_s"] == 0


def test_fastest_half_averages_the_faster_half():
    assert run.fastest_half([5.0, 1.0, 3.0, 2.0]) == 1.5
    assert run.fastest_half([3.0, 1.0, 2.0]) == 1.0
    assert run.fastest_half([4.0]) == 4.0


def test_closed_loop_starts_no_iteration_that_would_overrun(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(run.time, "perf_counter", clock)

    def iterate(index):
        clock.t += 3.0
        return index

    assert run.closed_loop(10, iterate) == [0, 1, 2]     # a 4th would end at 12
    assert run.closed_loop(1, iterate) == [0]            # at least one


def test_generator_is_a_function_of_seed_and_index():
    assert perturbed_inputs(7, 0) == perturbed_inputs(7, 0)
    assert perturbed_inputs(7, 0) != perturbed_inputs(8, 0)
    assert perturbed_inputs(7, 0) != perturbed_inputs(7, 1)
    for seed in range(20):
        claim = perturbed_inputs(seed).wrong_claim
        assert claim != FACTS.s54_spectrum
        total = sum(m for _, m in claim["integer_eigs"]) + 2 * bool(claim["quadratic"])
        assert total == 54


def test_relabelled_matrix_is_a_valid_seidel_matrix(mods):
    s = mods.cli.Pipeline(mods.cli.RunConfig()).seidel_matrix
    inputs = perturbed_inputs(3)
    t = relabel(mods, s, inputs)
    assert isinstance(t, mods.seidel.SeidelMatrix)
    assert all(t.rows[i][i] == 0 for i in range(t.n))
    assert all(t.rows[i][j] == t.rows[j][i] in (1, -1)
               for i in range(t.n) for j in range(i + 1, t.n))
    p, sg = inputs.perm, inputs.signs
    assert all(t.rows[i][j] == sg[i] * sg[j] * s.rows[p[i]][p[j]]
               for i in range(t.n) for j in range(t.n) if i != j)


def test_fact_checker_flags_a_wrong_expectation(mods):
    orders = (53,)
    pipeline = mods.cli.Pipeline(mods.cli.RunConfig(command="all", orders=orders))
    certs = [fn(pipeline) for fn in mods.cli.ALL_FNS]
    right = Verdicts()
    check_certificates(right, certs, orders)
    assert right.checked > 0 and right.errors == []
    wrong = Verdicts()
    check_certificates(wrong, certs, orders,
                       dataclasses.replace(FACTS, signed_aut_order=215))
    assert wrong.errors == ["aut.signed_order"]


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
