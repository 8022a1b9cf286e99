"""Every benchmark workload, built at its stored seed and run once, must
reproduce the digests in bench/expected_digests.json: each digest folds
one job's verdicts, witnesses and output, so a change of behaviour on
any benchmark job fails here before it fails a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
EXPECTED = json.loads((BENCH / "expected_digests.json").read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("convalg_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_seed_zero_digests(workload, tmp_path):
    jobs = WORKLOADS.build(workload, 0, tmp_path / "inputs")
    outcomes = [WORKLOADS.execute(job) for job in jobs]
    assert [i for i, o in enumerate(outcomes) if not o.ok] == []
    assert [o.digest for o in outcomes] == EXPECTED[workload]
