"""Tests of the benchmark's own machinery (not of nsbound).

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nsbound  # noqa: E402
import nsbound.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_generator_is_deterministic(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.files == b.files
    assert a.commands == b.commands


def test_generator_does_not_depend_on_the_interpreter_instance():
    code = (
        "import sys, json; sys.path[:0] = sys.argv[1:]; import workloads; "
        "print(json.dumps([workloads.build(n, 7).files for n in workloads.WORKLOAD_NAMES]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": "12345"},
    ).stdout
    assert json.loads(out) == [workloads.build(n, 7).files for n in workloads.WORKLOAD_NAMES]


def test_seeds_give_different_inputs_but_the_reference_stays_fixed():
    assert workloads.build("k4-lattice-d3", 1).files != workloads.build("k4-lattice-d3", 2).files
    assert workloads.build("ref-grid1500", 1).files == {"ref.mat": workloads.REFERENCE_TEXT}


def test_rank3_matrix_has_rank_three():
    import random

    B = workloads.rank3_matrix(random.Random(3))
    assert (B.rows, B.cols) == (5, 6)
    assert nsbound.minor(B, range(4), range(4)).is_zero()
    assert not nsbound.minor(B, range(3), range(3)).is_zero()


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "trace_id": 1, "attrs": {}}


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("bounds.analyze", 1.0, 4.0, 0),
        _span("matrices.det", 1.5, 2.5, 1),
        _span("density.matrix_density", 5.0, 9.0, 0),
        _span("poly.eval_block", 5.0, 6.0, 3),
        _span("density.eigen", 6.0, 8.5, 3),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.5, 1.0, 2.5])
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["bounds.analyze_self_s"] == pytest.approx(2.0)
    assert m["density.self_s"] == pytest.approx(0.5)
    assert m["density.matrix_density_s"] == pytest.approx(4.0)


def test_nested_spans_of_one_name_are_counted_once():
    spans = [
        _span("matrices.minor_search", 0.0, 4.0, None),
        _span("matrices.minor_search", 1.0, 3.0, 0),
        _span("matrices.det", 1.0, 2.0, 1),
    ]
    spans[2]["attrs"] = {"zero": False}
    m = tracer.layer_metrics(spans)
    assert m["matrices.minor_search_s"] == pytest.approx(4.0)
    assert m["matrices.det_s"] == pytest.approx(1.0)
    assert m["matrices.minor_hit_ratio"] == 1.0


def _attributes():
    owners = [m for n, m in sorted(sys.modules.items()) if n.startswith("nsbound")]
    owners += [nsbound.LaurentPoly, nsbound.TorusGrid]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_restore_every_patched_attribute(tmp_path):
    before = _attributes()
    path = tmp_path / "ref.mat"
    path.write_text(workloads.REFERENCE_TEXT)
    t = tracer.Tracer()
    with tracer.Patch(t) as patch:
        assert patch.missing == []
        assert nsbound.cli.main(["verify", str(path), "--grid", "40"]) == 0
        assert nsbound.cli.matrix_density is not before[(id(nsbound.cli), "matrix_density")]
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in t.spans}
    assert {"cli.main", "parsing", "bounds.analyze", "matrices.det", "density.matrix_density",
            "density.angles", "poly.eval_block", "density.eigen"} <= names
    m = tracer.layer_metrics(t.records())
    assert m["density.points"] == 40 * 40
    assert m["density.eigen_size"] == 2


def test_wrappers_are_restored_when_the_run_raises(tmp_path):
    before = _attributes()
    with pytest.raises(FileNotFoundError):
        with tracer.Patch(tracer.Tracer()):
            nsbound.cli.main(["analyze", str(tmp_path / "missing.mat")])
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_match_the_declared_per_layer_metrics():
    import run

    declared = set(run.declared_metrics("per_layer"))
    assert declared == set(tracer.layer_metrics([])) | {"trace.overhead_ratio"}
    assert set(run.declared_metrics("end_to_end")) == {"wall_s", "setup_s", "peak_rss_mb"}
