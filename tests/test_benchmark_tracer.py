"""The benchmark's span tracer (``benchmark/tracing.py``) wraps dncalc's
functions and methods by name, so a refactor that drops or renames one of
them breaks only the traced benchmark run.  This test attaches it to a
small factorisation and a small scalar DN task, as ``benchmark/run.py
--trace 1`` does."""

import importlib
import os
import sys

import dncalc
import dncalc.acceptance  # noqa: F401  (the modules run.py has loaded)
from dncalc.cli import main

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark")


def traced_bindings(tracing) -> dict:
    """Every binding the tracer replaces: the listed class attributes, and
    the listed function names in every dncalc module."""
    out = {}
    for cls_name, attrs in tracing.CLASS_SPANS.values():
        cls = getattr(dncalc, cls_name)
        out.update({(cls_name, attr): cls.__dict__[attr] for attr in attrs})
    modules = {k: m for k, m in sys.modules.items() if k.startswith("dncalc")}
    for _home, funcs in tracing.FUNCTION_SPANS.values():
        for name, module in modules.items():
            out.update({(name, f): getattr(module, f, None) for f in funcs})
    return out


def test_the_benchmark_tracer_attaches_counts_and_detaches(monkeypatch, capsys):
    monkeypatch.syspath_prepend(BENCHMARK)
    tracing = importlib.import_module("tracing")
    before = traced_bindings(tracing)
    tracer = tracing.Tracer(seed=1)
    try:
        tracer.install()
        assert traced_bindings(tracing) != before
        geometry = [
            "--dimension", "3", "--radial-order", "3", "--tangential-order", "2",
            "--depth", "2", "--metric", "random", "--weight", "random", "--seed", "5",
        ]
        assert main(["factorize", *geometry]) == 0
        assert main(["dn", "--map", "lambda0", *geometry]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    after = traced_bindings(tracing)
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.layer_metrics()
    assert metrics["factorization.solve.calls"][0] > 0
    assert metrics["factorization.verify.calls"][0] > 0
    assert metrics["jets.mul.calls"][0] > 0
    assert metrics["dn.symbol.calls"][0] > 0
