"""The benchmark's oracles against hand-computed values, and its checks
against deliberately wrong outputs.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

from procenv import ROOT, SRC, WORKLOADS

sys.path.insert(0, SRC)

import oracles  # noqa: E402
from tracing import OFF  # noqa: E402

KET = np.eye(8, dtype=complex)


def test_hth_at_ground_is_cos_squared_pi_over_8():
    word = [("H", (0,), None), ("T", (0,), None), ("H", (0,), None)]
    psi0 = np.array([1, 0], dtype=complex)
    p0 = np.diag([1.0, 0.0])
    assert oracles.truth_value(word, 1, psi0, p0) == pytest.approx(math.cos(math.pi / 8) ** 2,
                                                                    abs=1e-15)


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_toffoli_on_basis_controls_is_and(a, b):
    start = KET[:, 4 * a + 2 * b]                      # |a b 0>, wire 0 most significant
    out = oracles.run_word([("TOFFOLI", (0, 1, 2), None)], 3, start)
    target_one = sum(abs(out[i]) ** 2 for i in range(8) if i & 1)
    assert target_one == (a and b)


def test_wire_order_and_cnot_orientation():
    width2 = np.eye(4, dtype=complex)
    assert np.argmax(abs(oracles.run_word([("X", (0,), None)], 2, width2[:, 0]))) == 2
    assert np.argmax(abs(oracles.run_word([("CNOT", (0, 1), None)], 2, width2[:, 2]))) == 3
    assert np.argmax(abs(oracles.run_word([("CNOT", (1, 0), None)], 2, width2[:, 1]))) == 3
    assert np.argmax(abs(oracles.run_word([("CNOT", (0, 1), None)], 2, width2[:, 1]))) == 1
    # TOFFOLI controls may sit anywhere: controls on wires 2 and 0, target wire 1
    out = oracles.run_word([("TOFFOLI", (2, 0, 1), None)], 3, KET[:, 0b101])
    assert np.argmax(abs(out)) == 0b111


def test_phase_gates_and_xx():
    assert np.allclose(oracles.gate_block("T"), oracles.gate_block("R", math.pi / 4))
    assert np.allclose(oracles.gate_block("Z"), oracles.gate_block("R", math.pi))
    # XX(pi) = -i X(x)X sends |00> to -i |11>
    out = oracles.run_word([("XX", (0, 1), math.pi)], 2, np.eye(4, dtype=complex)[:, 0])
    assert out == pytest.approx([0, 0, 0, -1j], abs=1e-15)


def test_word_matrix_time_order_and_inverses():
    # time order: X then H on |0> gives H|1> = (|0> - |1>)/sqrt 2
    m = oracles.word_matrix([("X", (0,), None), ("H", (0,), None)], 1)
    assert m[:, 0] == pytest.approx(np.array([1, -1]) / math.sqrt(2), abs=1e-15)
    pairs = [("H", (1,), None), ("H", (1,), None), ("R", (0,), 0.7), ("R", (0,), -0.7),
             ("XX", (0, 1), 1.3), ("XX", (0, 1), -1.3), ("CNOT", (1, 0), None),
             ("CNOT", (1, 0), None)]
    assert np.allclose(oracles.word_matrix(pairs, 2), np.eye(4), atol=1e-14)


def test_pure_vector_recovers_the_ray_and_rejects_mixtures():
    v = np.array([0.6, 0.8j])
    w = oracles.pure_vector(np.outer(v, v.conj()))
    assert abs(np.vdot(w, v)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        oracles.pure_vector(np.eye(2) / 2)


def test_period_closed_forms():
    assert [oracles.totient(r) for r in (1, 7, 12, 32)] == [1, 6, 4, 16]
    assert list(oracles.period_distribution(4, 2)) == [0.5, 0.0, 0.5, 0.0]
    assert oracles.period_success(12) == pytest.approx(1 / 3)
    assert oracles.period_success(32) == 0.5


def test_lattice_sizes_and_dj():
    assert oracles.basis_closure_size(2) == 4 and oracles.basis_closure_size(4) == 16
    assert oracles.pair_closure_size() == 6
    assert oracles.boolean_size(2) == 16 and oracles.boolean_size(3) == 256
    assert oracles.dj_expected("1", "1") == ("constant", {"0": 1.0, "1": 0.0})
    assert oracles.dj_expected("0", "1") == ("balanced", {"0": 0.0, "1": 1.0})


def test_word_text_and_grouping():
    assert oracles.parse_word_text("width=2; H[0]; R(0.5)[1]; CNOT[0,1]") == (
        2, [("H", (0,), None), ("R", (1,), 0.5), ("CNOT", (0, 1), None)])
    assert oracles.group_within(np.array([0.0, 1e-12, 0.5]), 1e-9) == 2


# ---------------------------------------------------------------------------
# the checks must notice wrong answers


def test_quotient_check_catches_a_misplaced_word():
    import jobs
    from worker import job_rng
    inp = jobs.quotient_input(job_rng(0, 0, 1))
    out = jobs.quotient_run(inp, OFF)
    assert jobs.quotient_check(inp, out) == []
    part = out["parts"]["equiv_rho_P"]
    classes = [list(c) for c in part.classes]
    source = next(c for c in classes[1:] if len(c) > 1)
    classes[0].append(source.pop())
    out["parts"]["equiv_rho_P"] = type(part)(part.relation, tuple(map(tuple, classes)),
                                             part.keys)
    assert any("spans" in f for f in jobs.quotient_check(inp, out))


def test_circuits_check_catches_a_wrong_verdict_or_a_missing_witness():
    import dataclasses
    import jobs
    from worker import job_rng
    inp = jobs.circuits_input(job_rng(0, 0, 1))
    out = jobs.circuits_run(inp, OFF)
    assert jobs.circuits_check(inp, out) == []
    random = out["pairs"]["random"]
    rep = random["equiv_P"]
    random["equiv_P"] = dataclasses.replace(rep, witness_state=None)
    assert jobs.circuits_check(inp, out) == ["random equiv_P: failed with witness parts "
                                             "(False, False)"]
    random["equiv_P"] = rep
    random["equiv_rho"] = dataclasses.replace(random["equiv_rho"], holds=True,
                                              witness_event=None)
    assert jobs.circuits_check(inp, out)


def test_benchmark_json_names_every_reported_metric():
    from worker import per_layer_names
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "jobs_per_s", "job_s.p50", "setup_s", "peak_rss_mib"]
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
