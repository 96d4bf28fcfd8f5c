import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import qclogic
from qclogic import algorithms, classical, gates, qcore
from qclogic.cli import main
from qclogic.errors import ParseError, ValidationFailure
from qclogic.omlattice import boolean_oml, lattice_from_json, lattice_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_check_equiv_total_holds(capsys):
    code, payload = run_json(capsys, "check-equiv", "H", "H")
    assert code == 0
    assert payload["holds"] is True
    assert payload["theta"] == 0.0 and payload["strict_equal"] is True
    assert payload["word_a"] == "width=1; H[0]"


def test_check_equiv_total_fails_with_witness(capsys):
    first = run_cli(capsys, "check-equiv", "H", "Z")
    code, payload = first[0], json.loads(first[1])
    assert code == 1
    assert payload["holds"] is False
    assert set(payload["witness"]) == {"state", "event"}
    state = qcore.matrix_from_json(payload["witness"]["state"])
    assert abs(np.trace(state) - 1.0) < 1e-9
    # the witness is deterministic: a second call prints the same bytes
    assert run_cli(capsys, "check-equiv", "H", "Z") == first


def test_check_equiv_rho_relation(capsys):
    code, payload = run_json(capsys, "check-equiv", "", "Z",
                             "--relation", "equiv_rho", "--state", "basis:0")
    assert code == 0 and payload["holds"] is True
    code, payload = run_json(capsys, "check-equiv", "", "X",
                             "--relation", "equiv_rho", "--state", "basis:0")
    assert code == 1


def test_a_basis_context_is_checked_as_its_vector(capsys):
    # basis:K is |K><K|, built from the unit vector |K> with no eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        code, payload = run_json(capsys, "check-equiv", "H", "H",
                                 "--relation", "equiv_rho", "--state", "basis:0")
    assert code == 0 and payload["holds"] is True
    assert eigvalsh.call_count == 0


def test_check_equiv_missing_context_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "check-equiv", "H", "H",
                             "--relation", "equiv_rho")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--state" in err


@pytest.mark.parametrize("state, detail", [
    ('{"dim": 2, "re": 5}', "'matrix-json'"),
    ('{"dim": 2, "re": [1, 0, 0, 0], "im": "abcd"}', "'matrix-json'"),
    ('{"dim": 10000000, "re": [1], "im": [0]}', "dimension 10000000 exceeds cap 1024"),
])
def test_malformed_matrix_json_is_exit_2(capsys, state, detail):
    code, out, err = run_cli(capsys, "check-equiv", "H", "H",
                             "--relation", "equiv_rho", "--state", state)
    assert code == 2 and out == ""
    assert err.startswith("error:") and detail in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, dim", [
    (("check-equiv", "width=20; H[0]", "H[0]"), 2 ** 20),
    (("quotient", "--generators", "G1", "--width", "20", "--max-len", "1",
      "--state", "basis:0", "--event", "basis:0"), 2 ** 20),
    (("truth-table", "width=11; X[10]", "--state", "uniform"), 2 ** 11),
])
def test_register_past_the_dimension_cap_is_exit_2(capsys, argv, dim):
    # the cap is checked before any dim x dim matrix is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: dimension {dim} exceeds cap 1024\n"


@pytest.mark.parametrize("width", [100_000, 100_000_000])
@pytest.mark.parametrize("verb", [
    ("check-equiv", "width={}; H[0]", "H"),
    ("truth-table", "width={}; H[0]", "--state", "uniform"),
    ("quotient", "--word", "width={}; H[0]", "--state", "basis:0", "--event", "basis:0"),
])
def test_huge_register_width_is_refused_before_its_dimension(capsys, verb, width):
    argv = [a.format(width) for a in verb]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: dimension 2**{width} exceeds cap 1024\n"


def test_quotient_refuses_a_wide_register_before_enumerating(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "quotient", "--generators", "G1", "--width", "20000",
                             "--max-len", "1", "--state", "basis:0", "--event", "basis:0")
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == "error: dimension 2**20000 exceeds cap 1024\n"


@pytest.mark.parametrize("tol", ["-1", "nan"])
@pytest.mark.parametrize("argv", [
    ("check-equiv", "H[0]", "H[0]"),
    ("check-equiv", "H[0]", "H[0]", "--relation", "equiv_rho", "--state", "basis:0"),
    ("quotient", "--word", "H[0]", "--word", "H[0]", "--state", "basis:0",
     "--event", "basis:0"),
])
def test_unusable_tolerance_is_exit_2(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: invariant 'tolerance' violated")


def test_truth_table_does_not_revalidate_the_evolved_state(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(qcore.matrix_to_json(helpers.SKEWED_UNIFORM)))
    code, payload = run_json(capsys, "truth-table", "width=2; H[0]; H[1]",
                             "--state", str(path))
    assert code == 0
    assert payload["values"] == {f"basis:{k}": 0.25 for k in range(4)}


def test_check_equiv_widths_unify(capsys):
    code, payload = run_json(capsys, "check-equiv", "H[0]", "CNOT[0,1]",
                             "--relation", "equiv_rho_P",
                             "--state", "basis:0", "--event", "basis:3")
    assert code in (0, 1)
    assert payload["word_a"] == "width=2; H[0]"


def test_output_is_byte_identical(capsys):
    args = ("check-equiv", "H", "T;H", "--relation", "equiv_rho_P",
            "--state", "basis:0", "--event", "basis:0")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert out1.endswith("\n")


def test_truth_table_default_events(capsys):
    code, payload = run_json(capsys, "truth-table", "H", "--state", "basis:0")
    assert code == 0
    assert payload["values"]["basis:0"] == 0.5
    assert payload["values"]["basis:1"] == 0.5


def _in_child(body: list[str], *args: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a child under a 1 GiB address-space limit, BLAS on one
    thread, with ``args`` in its ``sys.argv[1:]``."""
    child = "\n".join(["import resource",
                       "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
                       *body])
    src = str(pathlib.Path(qclogic.__file__).resolve().parents[1])
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
    return subprocess.run([sys.executable, "-c", child, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, **threads, "PYTHONPATH": src})


def _main_in_child(argv: list[str], out: pathlib.Path) -> tuple[int, int, str]:
    """Run the CLI with ``--out`` in a child under :func:`_in_child`'s limits;
    returns its exit code, its own peak resident set in KiB (on Linux) after
    main returns, and its stderr.  The peak is ``VmHWM``, which starts anew
    at ``exec``; ``ru_maxrss`` would carry over the parent's resident set."""
    proc = _in_child([
        "import json, sys",
        "from qclogic.cli import main",
        "code = main(json.loads(sys.argv[1]) + ['--out', sys.argv[2]])",
        "print(next(int(line.split()[1]) for line in open('/proc/self/status')",
        "           if line.startswith('VmHWM:')))",
        "sys.exit(code)",
    ], json.dumps(argv), str(out))
    return proc.returncode, int(proc.stdout or 0), proc.stderr


# at 10**11 bits the power alone would take 12.5 GB, so a child capped at
# 1 GiB shows whether it is formed
@pytest.mark.parametrize("argv, message", [
    (["run-dj", '{"n": 100000000000, "m": 1, "table": {}}'],
     "invariant 'oracle-total' violated by 0.000e+00 (0 rows, need 2**100000000000)"),
    (["lattice-verify", "--builtin", "boolean:100000000000"],
     "2**100000000000 atoms cannot be masked into an int64"),
])
def test_widths_past_64_bits_are_refused_before_the_power(tmp_path, argv, message):
    code, _, err = _main_in_child(argv, tmp_path / "out.json")
    assert (code, err) == (2, f"error: {message}\n")


def test_a_machine_past_64_input_bits_is_refused_before_the_power():
    proc = _in_child([
        "from qclogic import classical",
        "from qclogic.errors import SizeCapExceeded",
        "try:",
        "    classical.machine_from_json({'M': 100000000000, 'N': 1, 'rows': {}})",
        "except SizeCapExceeded as exc:",
        "    print(exc)",
    ])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("a table on 100000000000 input and 1 output bits has "
                           "more than 2**64 rows or entries\n")


def test_truth_table_default_events_at_the_register_cap(tmp_path):
    target = tmp_path / "table.json"
    code, peak_kib, err = _main_in_child(
        ["truth-table", "width=10; H[0]", "--state", "basis:0"], target)
    assert code == 0, err
    assert peak_kib < 300 * 1024
    values = json.loads(target.read_text())["values"]
    assert len(values) == 1024
    assert values["basis:0"] == values["basis:512"] == 0.5
    assert sum(values.values()) == 1.0


@pytest.mark.parametrize("state, count", [("basis:0", 49), ("uniform", 1)])
def test_quotient_of_a_wide_register_stays_small(tmp_path, state, count):
    # 2,593 words at width 6, evolved from their prefixes on a factor of the
    # state: one column for basis:0, 64 for the maximally mixed state, which
    # takes 82 chunks of at most 2 MiB
    target = tmp_path / "classes.json"
    code, peak_kib, err = _main_in_child(
        ["quotient", "--generators", "G2", "--width", "6", "--max-len", "2",
         "--phase", "0.7", "--phase", "2.1", "--relation", "equiv_rho",
         "--state", state], target)
    assert code == 0, err
    assert json.loads(target.read_text())["count"] == count
    assert peak_kib <= 150 * 1024


def test_check_equiv_total_at_a_loose_tol_finds_a_witness(capsys):
    # at tol 0.2 every candidate state's evolutions agree entrywise within
    # tol, yet H on all seven wires is far from a phase
    word = "width=7; H[0]; H[1]; H[2]; H[3]; H[4]; H[5]; H[6]"
    code, payload = run_json(capsys, "check-equiv", "width=7", word, "--tol", "0.2")
    assert code == 1 and payload["holds"] is False
    rho, p = (qcore.matrix_from_json(payload["witness"][k]) for k in ("state", "event"))
    u = gates.compose_word(gates.parse_word(word)).matrix
    assert (helpers.truth_value_oracle(np.eye(128), rho, p)
            != helpers.truth_value_oracle(u, rho, p))


def test_truth_table_inline_event_and_table_format(capsys):
    plus = qcore.matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]]))
    code, payload = run_json(capsys, "truth-table", "H", "--state", "basis:0",
                             "--event", json.dumps(plus))
    assert code == 0
    (value,) = payload["values"].values()   # H sends |0> onto the event
    assert value == pytest.approx(1.0, abs=1e-12)
    code, out, err = run_cli(capsys, "truth-table", "H", "--state", "basis:0",
                             "--format", "table")
    assert code == 0 and err == ""
    assert "values.basis:0 = 0.5" in out


def test_quotient_generators(capsys):
    code, payload = run_json(capsys, "quotient", "--generators", "G1",
                             "--max-len", "2", "--state", "basis:0",
                             "--event", "basis:0")
    assert code == 0
    assert payload["count"] == 2
    assert payload["classes"][0][0] == "width=1"
    assert payload["classes"][1][0] == "width=1; H[0]"


def test_quotient_explicit_words(capsys):
    code, payload = run_json(capsys, "quotient", "--word", "H", "--word", "",
                             "--word", "H;H", "--relation", "equiv_rho",
                             "--state", "basis:0")
    assert code == 0
    assert payload["classes"] == [["width=1; H[0]"], ["width=1", "width=1; H[0]; H[0]"]]


def test_quotient_needs_words_or_generators(capsys):
    code, out, err = run_cli(capsys, "quotient", "--state", "basis:0")
    assert code == 2 and "generators" in err


def test_run_dj(capsys):
    oracle = json.dumps({"n": 1, "m": 1, "table": {"0": "0", "1": "1"}})
    code, payload = run_json(capsys, "run-dj", oracle)
    assert code == 0
    assert payload["verdict"] == "balanced"
    assert payload["distribution"] == {"0": 0.0, "1": 1.0}
    assert payload["success_probability"] == 1.0
    const = json.dumps({"n": 1, "m": 1, "table": {"0": "1", "1": "1"}})
    code, payload = run_json(capsys, "run-dj", const)
    assert payload["verdict"] == "constant"
    assert payload["distribution"]["0"] == 1.0


def test_run_dj_bad_payload(capsys):
    code, out, err = run_cli(capsys, "run-dj", "{not json")
    assert code == 2 and err.startswith("error:")
    code, out, err = run_cli(capsys, "run-dj", '{"n": 1}')
    assert code == 2
    code, out, err = run_cli(capsys, "run-dj", "/nonexistent/oracle.json")
    assert code == 2


def test_run_period(capsys):
    spec = json.dumps({"N": 4, "r": 2, "f": [5, 6, 5, 6]})
    code, payload = run_json(capsys, "run-period", spec)
    assert code == 0
    assert payload["distribution"] == {"0": 0.5, "1": 0.0, "2": 0.5, "3": 0.0}
    assert payload["verdict"] == "period=2"
    code, conditioned = run_json(capsys, "run-period", spec,
                                 "--condition-on", "6")
    assert conditioned["distribution"] == payload["distribution"]
    code, out, err = run_cli(capsys, "run-period", spec, "--condition-on", "99")
    assert code == 2
    bad = json.dumps({"N": 4, "r": 3, "f": [0, 1, 2, 0]})
    code, out, err = run_cli(capsys, "run-period", bad)
    assert code == 2
    code, out, err = run_cli(capsys, "run-period", spec, "--samples", "0")
    assert code == 2 and out == "" and "samples" in err


def test_run_period_past_the_sample_cap_is_exit_2(capsys):
    spec = json.dumps({"N": 4, "r": 2, "f": [0, 1, 0, 1]})
    code, out, err = run_cli(capsys, "run-period", spec, "--samples", "1000001")
    assert code == 2 and out == ""
    assert err == "error: 1000001 samples exceeds cap 1000000\n"


def test_lattice_verify_builtins(capsys):
    code, payload = run_json(capsys, "lattice-verify", "--builtin", "boolean:2")
    assert code == 0
    assert payload["elements"] == 16 and payload["required_pass"] is True
    assert all(law["holds"] for law in payload["laws"])
    code, payload = run_json(capsys, "lattice-verify", "--builtin", "mo2")
    assert code == 0 and payload["required_pass"] is True
    dist = [law for law in payload["laws"] if law["law"] == "distributive"]
    assert dist[0]["holds"] is False and dist[0]["witness"] == ["a", "a'", "b"]
    code, out, err = run_cli(capsys, "lattice-verify", "--builtin", "nonsense")
    assert code == 2


def test_lattice_verify_file(tmp_path, capsys):
    from qclogic.omlattice import boolean_oml, lattice_to_json
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice_to_json(boolean_oml(1))))
    code, payload = run_json(capsys, "lattice-verify", str(path))
    assert code == 0 and payload["elements"] == 4
    # a non-orthomodular order is rejected as unusable input
    bad = {
        "elements": ["0", "x", "y", "x'", "y'", "1"],
        "leq": {"0": ["x", "y", "x'", "y'", "1"], "x": ["y'"], "y": ["x'"],
                "x'": ["1"], "y'": ["1"], "1": []},
        "ortho": {"0": "1", "x": "x'", "x'": "x", "y": "y'", "y'": "y", "1": "0"},
        "zero": "0", "one": "1",
    }
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps(bad))
    code, out, err = run_cli(capsys, "lattice-verify", str(path2))
    assert code == 2 and "orthomodular" in err
    code, out, err = run_cli(capsys, "lattice-verify")
    assert code == 2


def test_lattice_verify_refuses_a_repeated_label(tmp_path, capsys):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({
        "elements": ["0", "a", "a", "1"], "leq": {"0": ["a", "1"], "a": ["1"]},
        "ortho": {"0": "1", "a": "a", "1": "0"}, "zero": "0", "one": "1"}))
    code, out, err = run_cli(capsys, "lattice-verify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: invariant 'labels-unique' violated by 0.000e+00\n"


@pytest.mark.parametrize("payload", [
    {"elements": ["0", "1"], "leq": [["0", "1"]],
     "ortho": {"0": "1", "1": "0"}, "zero": "0", "one": "1"},
    {"elements": ["0", "1"], "leq": {"0": ["1"]},
     "ortho": [["0", "1"], ["1", "0"]], "zero": "0", "one": "1"},
    ["0", "1"],
])
def test_lattice_verify_malformed_file_is_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "lattice-verify", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("reader, payload", [
    (algorithms.oracle_from_json, {"n": "x", "m": 1, "table": {}}),
    (algorithms.oracle_from_json, {"n": 1, "m": 1, "table": "ab"}),
    (algorithms.periodic_from_json, {"N": "x", "r": 1, "f": [1]}),
    (algorithms.periodic_from_json, {"N": 2, "r": 1, "f": ["a", "a"]}),
    (classical.machine_from_json, {"M": "x", "N": 1, "rows": {}}),
    (classical.machine_from_json, {"M": 1, "N": 1, "rows": {"0": "ab", "1": [1, 0]}}),
    (qcore.matrix_from_json, {"dim": "x", "re": [1]}),
    (qcore.matrix_from_json, {"dim": 1, "re": ["a"]}),
    (qcore.matrix_from_json, {"dim": 1, "re": [{}]}),
    # an integer field must be an integer, and a list field a list: none is
    # coerced, as int() and iteration would
    (algorithms.oracle_from_json, {"n": 1.9, "m": 1, "table": {"0": "0", "1": "1"}}),
    (algorithms.oracle_from_json, {"n": 1, "m": True, "table": {"0": "0", "1": "1"}}),
    (algorithms.periodic_from_json, {"N": 4, "r": 2, "f": [1.5, 2, 1.9, 2]}),
    (algorithms.periodic_from_json, {"N": 4, "r": 2, "f": "1212"}),
    (algorithms.periodic_from_json, {"N": 4.0, "r": 2, "f": [1, 2, 1, 2]}),
    (algorithms.periodic_from_json, {"N": 4, "r": "2", "f": [1, 2, 1, 2]}),
    (classical.machine_from_json, {"M": "1", "N": 1, "rows": {}}),
    (classical.machine_from_json, {"M": 1, "N": 1.0, "rows": {}}),
    (qcore.matrix_from_json, {"dim": 2.5, "re": [1, 0, 0, 0]}),
    (qcore.matrix_from_json, {"dim": True, "re": [1]}),
    (lattice_from_json, {"elements": "01", "leq": {"0": ["1"]},
                         "ortho": {"0": "1", "1": "0"}, "zero": "0", "one": "1"}),
    # an object field must be an object, a list field a list and a label a
    # string: a list of pairs is no object, and a string no list of labels
    (algorithms.oracle_from_json, {"n": 1, "m": 1, "table": [["0", "0"], ["1", "1"]]}),
    (classical.machine_from_json, {"M": 1, "N": 1, "rows": [["0", [1, 0]], ["1", [0, 1]]]}),
    (classical.machine_from_json, {"M": 1, "N": 1, "rows": {"0": "10", "1": "01"}}),
    (lattice_from_json, {"elements": ["0", "a", "b", "1"], "leq": {"0": "ab1", "a": "1", "b": "1"},
                         "ortho": {"0": "1", "a": "b", "b": "a", "1": "0"},
                         "zero": "0", "one": "1"}),
    (lattice_from_json, {"elements": [0, "a", "b", 1],
                         "leq": {"0": ["a", "b"], "a": ["1"], "b": ["1"]},
                         "ortho": {"0": "1", "a": "b", "b": "a", "1": "0"},
                         "zero": "0", "one": "1"}),
])
def test_json_readers_refuse_bad_values_with_their_own_error(reader, payload):
    # each payload raises a ValueError or a TypeError inside the reader;
    # neither is a QclError, so each must be turned into one
    invariant = {qcore.matrix_from_json: "matrix-json",
                 lattice_from_json: "lattice-json"}.get(reader)
    if invariant:
        with pytest.raises(ValidationFailure) as err:
            reader(payload)
        assert err.value.invariant == invariant
    else:
        with pytest.raises(ParseError):
            reader(payload)


@pytest.mark.parametrize("argv, message", [
    (["run-dj", '{"n": 1, "m": 1, "table": {"0": ["0"], "1": ["1"]}}'],
     "invariant 'oracle-value' violated by 0.000e+00 (['0'] is not a 1-bit word)"),
    (["run-dj", '{"n": 1, "m": 1, "table": [["0", "0"], ["1", "1"]]}'],
     "bad oracle payload: expected an object, got list"),
    (["lattice-verify", json.dumps({"elements": ["0", "a", "b", "1"],
                                    "leq": {"0": "ab1", "a": "1", "b": "1"},
                                    "ortho": {"0": "1", "a": "b", "b": "a", "1": "0"},
                                    "zero": "0", "one": "1"})],
     "invariant 'lattice-json' violated by 0.000e+00 (bad payload: expected a list, got str)"),
])
def test_json_of_the_wrong_type_is_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# 1e400 reads as infinity, which no integer field takes
@pytest.mark.parametrize("argv", [
    ["run-dj", '{"n": 1e400, "m": 1, "table": {}}'],
    ["run-period", '{"N": 1e400, "r": 1, "f": [0]}'],
    ["run-period", '{"N": 2, "r": 1, "f": [1e400, 1e400]}'],
    ["check-equiv", "width=1", "width=1", "--relation", "equiv_rho",
     "--state", '{"dim": 1e400, "re": []}'],
    ["check-equiv", "width=1", "width=1", "--relation", "equiv_rho",
     "--state", '{"dim": 1, "re": [1' + "0" * 400 + ']}'],
    ["run-dj", '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    # f(0) = 1.5 and f(2) = 1.9 differ, so period 2 is wrong
    ["run-period", '{"N": 4, "r": 2, "f": [1.5, 2, 1.9, 2]}'],
])
def test_overflowing_or_deeply_nested_json_is_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, token", [
    (["truth-table", "H", "--state", "basis:x"], "basis:x"),
    (["truth-table", "H", "--state", "basis:0", "--event", "basis:"], "basis:"),
    (["check-equiv", "H", "X", "--relation", "equiv_P", "--event", "basis:1.5"], "basis:1.5"),
    (["lattice-verify", "--builtin", "boolean:x"], "boolean:x"),
    (["truth-table", "width=4; H[0]", "--state", "basis:1_0"], "basis:1_0"),
    (["truth-table", "H", "--state", "basis: 0"], "basis: 0"),
    (["truth-table", "H", "--state", "basis:+1"], "basis:+1"),
    (["truth-table", "H", "--state", "basis:\u0661"], "basis:\u0661"),
    (["lattice-verify", "--builtin", "boolean:+2"], "boolean:+2"),
])
def test_a_non_integer_index_is_a_parse_error(capsys, argv, token):
    code, out, err = run_cli(capsys, *argv)
    # a ParseError naming the token, not int()'s own message
    assert (code, out, err) == (2, "", f"error: bad integer in {token!r}\n")


def test_a_machine_with_an_infinite_width_is_a_parse_error():
    with pytest.raises(ParseError):
        classical.machine_from_json({"M": 1e400, "N": 1, "rows": {}})


def test_a_fourier_matrix_past_the_cap_is_refused_before_it_is_formed(tmp_path):
    # at N = 20000 the matrix alone takes 6.4 GB
    spec = json.dumps({"N": 20000, "r": 1, "f": [0] * 20000})
    code, _, err = _main_in_child(["run-period", spec], tmp_path / "out.json")
    assert (code, err) == (2, "error: dimension 20000 exceeds cap 1024\n")


# every verb that reads JSON: a valid payload and where it goes in argv
_PAYLOADS = {
    "run-dj": ({"n": 1, "m": 1, "table": {"0": "0", "1": "1"}},
               lambda t: ["run-dj", t]),
    "run-period": ({"N": 4, "r": 2, "f": [5, 6, 5, 6]},
                   lambda t: ["run-period", t, "--samples", "2"]),
    "lattice-verify": (lattice_to_json(boolean_oml(1)),
                       lambda t: ["lattice-verify", t]),
    "check-equiv": ({"dim": 2, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
                    lambda t: ["check-equiv", "H", "Z", "--relation", "equiv_P",
                               "--event", t]),
    "truth-table": ({"dim": 2, "re": [1, 0, 0, 0]},
                    lambda t: ["truth-table", "H", "--state", t, "--event", t]),
    "quotient": ({"dim": 2, "re": [0.5, 0.5, 0.5, 0.5]},
                 lambda t: ["quotient", "--generators", "G1", "--max-len", "1",
                            "--state", t, "--event", t]),
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@st.composite
def _payload_argv(draw):
    """A verb's argv with an arbitrary JSON object, or with its valid
    payload with one field replaced, added or removed."""
    base, argv = _PAYLOADS[draw(st.sampled_from(sorted(_PAYLOADS)))]
    if draw(st.booleans()):
        payload = draw(st.dictionaries(st.text(max_size=4), _JSON, max_size=4))
    else:
        payload = dict(base)
        key = draw(st.sampled_from(sorted(payload) + ["extra"]))
        if draw(st.booleans()):
            payload[key] = draw(_JSON)
        else:
            payload.pop(key, None)
    return argv(json.dumps(payload))


@settings(max_examples=300, deadline=None)
@given(_payload_argv())
@example(["run-dj", '{"n": 1e400, "m": 1, "table": {}}'])
@example(["run-period", '{"N": 1e400, "r": 1, "f": [0]}'])
@example(["run-period", '{"N": 2, "r": 1, "f": [1e400, 1e400]}'])
@example(["check-equiv", "width=1", "width=1", "--relation", "equiv_rho",
          "--state", '{"dim": 1e400, "re": []}'])
@example(["run-dj", '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"])
def test_every_verb_exits_0_1_or_2_on_any_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and err.getvalue() == ""


def test_every_verb_runs_on_numpy_alone():
    # numpy is the only runtime dependency: with scipy and hypothesis made
    # unimportable, each verb still runs, a failing equiv_total included
    argvs = [["check-equiv", "H", "Z"],
             ["check-equiv", "H", "X", "--relation", "equiv_rho", "--state", "basis:0"],
             ["truth-table", "H", "--state", "basis:0"],
             ["quotient", "--generators", "G1", "--max-len", "2", "--state", "basis:0",
              "--event", "basis:0"],
             ["run-dj", json.dumps(_PAYLOADS["run-dj"][0])],
             ["run-period", json.dumps(_PAYLOADS["run-period"][0])],
             ["lattice-verify", "--builtin", "mo2"],
             ["boolean-recover", "--bits", "1"]]
    proc = _in_child([
        "import contextlib, io, json, sys",
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None",
        "from qclogic.cli import main",
        "codes = []",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        codes.append(main(argv))",
        "print(codes)",
    ], json.dumps(argvs))
    assert (proc.stdout, proc.stderr) == ("[1, 1, 0, 0, 0, 0, 0, 0]\n", "")


def test_boolean_recover(capsys):
    code, payload = run_json(capsys, "boolean-recover", "--bits", "2",
                             "--cases", "10")
    assert code == 0
    assert payload["event_count"] == 16 == payload["expected_events"]
    assert payload["distributive"] is True and payload["orthomodular"] is True
    assert payload["classical_mismatches"] == 0
    assert payload["classical_cases"] > 0
    code, payload = run_json(capsys, "boolean-recover", "--bits", "1")
    assert code == 0 and payload["event_count"] == 4
    code, out, err = run_cli(capsys, "boolean-recover", "--bits", "3")
    assert code == 2


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_boolean_recover_without_a_case_is_exit_2(capsys, cases):
    code, out, err = run_cli(capsys, "boolean-recover", "--cases", cases)
    assert (code, out, err) == (2, "", f"error: cases must be >= 1, got {cases}\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "truth-table", "H", "--state", "basis:0",
                             "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["values"]["basis:0"] == 0.5


def test_console_script_entry_point():
    exe = shutil.which("qclogic")
    if exe is None:
        proc = subprocess.run(
            [sys.executable, "-m", "qclogic.cli", "check-equiv", "H", "H"],
            capture_output=True, text=True)
    else:
        proc = subprocess.run([exe, "check-equiv", "H", "H"],
                              capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True
    assert proc.stderr == ""        # no RuntimeWarning about qclogic.cli under -m


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy would add to every start-up
    src = str(pathlib.Path(qclogic.__file__).resolve().parents[1])
    code = ("import sys, qclogic; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
