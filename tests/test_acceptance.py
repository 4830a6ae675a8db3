"""Acceptance suite: every checked claim at its pinned tolerance, one
pass/fail line per criterion (run with -s to watch them stream)."""

import os
import subprocess
import sys

import pytest

from conftest import ROOT
from uavmec import acceptance
from uavmec.optimizer import algorithm1
from uavmec.scenario import build_instance


@pytest.fixture(scope="module")
def stock(table1_cfg):
    inst = build_instance(table1_cfg)
    report = algorithm1(inst, eps=table1_cfg.epsilon, max_iterations=table1_cfg.max_iterations)
    return table1_cfg, report, inst


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_convexity(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_convexity(cfg, samples=1000))


def test_criterion_2_closed_form_consistency(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_closed_form_consistency(cfg, trials=100))


def test_criterion_3_oracle_equivalence(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_oracle_equivalence(cfg))


def test_criterion_4_kkt_at_optimum(stock):
    _, report, inst = stock
    _check(acceptance.criterion_kkt(report, inst))


def test_criterion_5_strong_duality(stock):
    _, report, _ = stock
    _check(acceptance.criterion_strong_duality(report))


def test_criterion_6_convergence(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_convergence(cfg))


def test_criterion_7_trend_reproduction(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_trends(cfg))


def test_criterion_8_derived_constants(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_derived_constants(cfg))


def test_criterion_9_determinism(stock):
    cfg, _, _ = stock
    _check(acceptance.criterion_determinism(cfg))


def test_importing_the_package_leaves_the_acceptance_checks_unloaded():
    # `verify` resolves on first use, through the package and through `*`
    code = """
import sys
import uavmec
assert not {"uavmec.acceptance", "uavmec.oracle"} & set(sys.modules), sorted(sys.modules)
from uavmec.acceptance import verify
assert uavmec.verify is verify
names = {}
exec("from uavmec import *", names)
assert names["verify"] is verify and set(uavmec.__all__) <= set(names)
"""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
