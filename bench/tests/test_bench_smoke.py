"""Smoke test of the benchmark itself.

Run with ``python -m pytest bench/tests -q`` from the repository root
(``pyproject.toml`` limits the default collection to ``tests/``).
"""

from __future__ import annotations

import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from bench import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: counts that must repeat exactly from one invocation to the next (not
#: linger.archive_bytes: the archive holds timings, and compresses to a
#: byte more or less)
EXACT = ("linger.n_modes", "linger.n_rhs", "linger.n_steps", "mp.messages",
         "mp.bytes")


def test_contract_file_matches_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == spec.contract()
    assert 2 <= len(contract["workloads"]) <= 8
    names = [w["name"] for w in contract["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in contract[group]]
        assert all(UNIT.match(m["unit"]) for m in contract[group])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in contract["end_to_end"])
    # a run lasts about 2.2x its measuring window (set-up samples, store
    # fill, teardown); all the driver's runs must fit its cap
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * 2.2 * contract["run_seconds"] < 3420


def test_timed_path_imports_only_public_names():
    import repro
    import repro.linger
    import repro.spectra

    public = {"repro": set(repro.__all__),
              "repro.linger": set(repro.linger.__all__),
              "repro.spectra": set(repro.spectra.__all__)}
    for module in ("workloads.py", "measure.py"):
        tree = ast.parse((ROOT / "bench" / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro")
                               for a in node.names), module
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").startswith("repro"):
                assert node.module in public, (module, node.module)
                for alias in node.names:
                    assert alias.name in public[node.module], \
                        (module, node.module, alias.name)


def smoke_reports() -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "ops_failed = 0" in done.stdout
    reports = {}
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            path = ROOT / "bench" / "out" / \
                f"run-{workload}-seed0-trace{trace}.json"
            reports[workload, trace] = json.loads(path.read_text())
    return reports


@pytest.fixture(scope="module")
def two_smoke_runs():
    return smoke_reports(), smoke_reports()


def test_every_named_metric_is_reported(two_smoke_runs):
    wanted = {0: {n: u for n, u, _, _ in spec.END_TO_END},
              1: {n: u for n, u, _ in spec.PER_LAYER}}
    for (workload, trace), report in two_smoke_runs[0].items():
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert set(report["metrics"]) == set(wanted[trace]), workload
        for name, m in report["metrics"].items():
            assert m["unit"] == wanted[trace][name]
            assert math.isfinite(m["value"]), (workload, name)
        if trace:
            assert report["probes_missing"] == [], workload
        else:
            assert all(m["value"] > 0 for m in report["metrics"].values())


def test_counts_repeat_exactly(two_smoke_runs):
    first, second = two_smoke_runs
    for key in first:
        if key[1] == 0:
            continue
        for name in EXACT:
            assert first[key]["metrics"][name]["value"] \
                == second[key]["metrics"][name]["value"], (key, name)
    for reports in two_smoke_runs:
        assert reports["serve_miss", 1]["extras"]["serve.burst_computed"] == 1
        assert reports["hier_plinger", 1]["extras"][
            "plinger.vs_serial_err"] == 0.0
