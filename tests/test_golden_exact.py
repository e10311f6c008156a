"""Golden exact curves: the exact curve functions must keep reproducing a snapshot.

``golden_exact.json`` holds ``exact_tv_curve``, ``worst_case_curve`` and
``partial_mixing_time`` results for all four rule kinds at n <= 8, k <= 2,
t <= 30, taken before those functions were folded onto one start
resolver and one evolution loop. Refactors of the exact layer must agree
with it within 1e-12. Regenerate it only when an exact value is meant to
change:

    PYTHONPATH=src python tests/test_golden_exact.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from shufflemix.errors import HorizonError
from shufflemix.exact import exact_tv_curve, partial_mixing_time, worst_case_curve

from conftest import ALL_KINDS, make_rule

GOLDEN = Path(__file__).with_name("golden_exact.json")
TOL = 1e-12
TIMES = list(range(0, 31))
SIZES = ((5, 1), (6, 2), (8, 2))


def _curve(curve) -> dict:
    return {"values": curve.values.tolist(), "metadata": curve.metadata}


def _mixing(rule, k, epsilon) -> dict:
    try:
        res = partial_mixing_time(rule, k, epsilon, horizon=30)
    except HorizonError as exc:
        return {"horizon_error": exc.last_value}
    return {"t": res.t, "tv": res.tv, "strategy": res.strategy}


def compute() -> dict:
    """Every golden case, keyed by a readable name."""
    out = {}
    for kind in ALL_KINDS:
        for n, k in SIZES:
            rule = make_rule(kind, n)
            tag = f"{kind}/n{n}k{k}"
            for start in (tuple(range(1, k + 1)), tuple(range(n, n - k, -1))):
                name = "-".join(map(str, start))
                out[f"exact_tv/{tag}/{name}"] = _curve(exact_tv_curve(rule, k, start, TIMES))
            out[f"worst/{tag}/auto"] = _curve(worst_case_curve(rule, k, TIMES))
            for eps in (0.5, 0.25, 0.05):
                out[f"mix/{tag}/{eps}/auto"] = _mixing(rule, k, eps)
    return out


def _assert_close(got, want, path):
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= TOL, (path, got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


@pytest.fixture(scope="module")
def current():
    # JSON round trip so tuples and lists compare alike
    return json.loads(json.dumps(compute()))


def test_golden_cases_all_present(current):
    want = json.loads(GOLDEN.read_text())
    assert sorted(current) == sorted(want)


@pytest.mark.parametrize("family", ["exact_tv", "worst", "mix"])
def test_golden_exact_agrees(current, family):
    want = json.loads(GOLDEN.read_text())
    names = [name for name in want if name.startswith(family + "/")]
    assert names
    for name in names:
        _assert_close(current[name], want[name], name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_exact.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
