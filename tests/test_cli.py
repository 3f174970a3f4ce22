"""End-to-end command line behavior and exit codes.

Exit code map under test: 0 pass, 1 failed check, 2 bad input, 3 cap hit.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gapcircuits import cli, verification
from gapcircuits.cli import main
from gapcircuits.textio import built_from_text
from gapcircuits.verification import verify_built


def _strip_volatile(text):
    return [line for line in text.splitlines()
            if not line.startswith(("generated:", "wall:"))]


def _strip_volatile_json(payload):
    return {k: v for k, v in payload.items() if k not in ("generated", "wall_seconds")}


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "ov", "-n", "4", "-d", "2", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "ov", "-n", "4", "-d", "2", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == "gap-instance-v1"
    assert payload["seed"] == 9


def test_gen_argument_errors(capsys):
    assert main(["gen", "ov", "-n", "2"]) == 2  # missing -d
    assert "-d" in capsys.readouterr().err
    assert main(["gen", "3sum", "-n", "2"]) == 2  # missing --bound
    assert "--bound" in capsys.readouterr().err
    assert main(["gen", "nwt", "-n", "2"]) == 2
    assert "--bound" in capsys.readouterr().err
    assert main(["gen", "3sum", "-n", "6", "--bound", "1"]) == 2  # pigeonhole
    assert main(["gen", "ov", "-n", "9", "-d", "1"]) == 2  # over budget
    assert "budget" in capsys.readouterr().err


def test_build_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    circ = tmp_path / "circ.txt"
    assert main(["gen", "3sum", "-n", "3", "--bound", "4", "--seed", "1",
                 "--out", str(inst)]) == 0
    assert main(["build", str(inst), "--mode", "explicit", "--out", str(circ)]) == 0
    built = built_from_text(circ.read_text())
    assert built.problem == "3sum"
    assert built.mode == "explicit"


def test_build_input_errors(tmp_path):
    assert main(["build", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["build", str(bad)]) == 2
    not_schema = tmp_path / "plain.json"
    not_schema.write_text('{"problem": "ov"}')
    assert main(["build", str(not_schema)]) == 2


def test_simulate_instance_and_circuit_inputs(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    circ = tmp_path / "circ.txt"
    main(["gen", "ov", "-n", "3", "-d", "2", "--seed", "4", "--out", str(inst)])
    main(["build", str(inst), "--out", str(circ)])

    assert main(["simulate", str(inst), "--backend", "both"]) == 0
    from_instance = capsys.readouterr().out
    assert "agree: pass" in from_instance

    assert main(["simulate", str(circ), "--backend", "pathsum"]) == 0
    from_circuit = capsys.readouterr().out
    for line in from_circuit.splitlines():
        if line.startswith("pathsum."):
            assert line in from_instance


def test_simulate_json_report(tmp_path):
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    main(["gen", "nwt", "-n", "3", "--bound", "1", "--seed", "2", "--out", str(inst)])
    assert main(["simulate", str(inst), "--mode", "explicit", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["problem"] == "nwt"
    assert payload["pathsum"]["p_acc_float"] == pytest.approx(
        float(Fraction(payload["pathsum"]["p_acc"])))


SIMULATE_BOTH_TEXT = """\
problem: ov
mode: qram
qubits: 16
exponent: 17
pathsum.signed_sum: -7
pathsum.branches: 16
pathsum.accepted: 9
pathsum.p_acc: 49/131072
pathsum.p_acc_float: 0.00037384033203125
dense.p_acc: 0.00037384033203125
agree: pass
"""

SIMULATE_BOTH_JSON = """\
{
  "agree": true,
  "dense": {
    "p_acc": 0.00037384033203125
  },
  "exponent": 17,
  "mode": "qram",
  "pathsum": {
    "accepted": 9,
    "branches": 16,
    "p_acc": "49/131072",
    "p_acc_float": 0.00037384033203125,
    "signed_sum": -7
  },
  "problem": "ov",
  "qubits": 16
}
"""


def test_simulate_both_bytes_are_pinned(tmp_path, capsys):
    # The dense p_acc is exact, so it prints as the path sum's float does.
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    main(["gen", "ov", "-n", "3", "-d", "2", "--seed", "4", "--out", str(inst)])
    assert main(["simulate", str(inst), "--backend", "both", "--out", str(report)]) == 0
    assert capsys.readouterr().out == SIMULATE_BOTH_TEXT
    assert report.read_text() == SIMULATE_BOTH_JSON


def test_dense_backend_exit_codes(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "nwt", "-n", "2", "--bound", "1", "--seed", "0", "--out", str(inst)])
    assert main(["simulate", str(inst), "--backend", "both"]) == 0  # 26 qubits
    assert "agree: pass" in capsys.readouterr().out.splitlines()
    # the branch cap bounds the dense backend: ov n=3 d=2 has h = 4
    main(["gen", "ov", "-n", "3", "-d", "2", "--seed", "0", "--out", str(inst)])
    assert main(["simulate", str(inst), "--backend", "dense", "--branch-cap", "3"]) == 3
    assert "error: 2^4 branches exceed the 2^3 branch cap" in capsys.readouterr().err
    assert main(["simulate", str(inst), "--backend", "dense", "--branch-cap", "4"]) == 0


def test_simulate_malformed_header_integer_exits_2(tmp_path, capsys):
    inst, circ = tmp_path / "inst.json", tmp_path / "circ.txt"
    main(["gen", "ov", "-n", "2", "-d", "1", "--seed", "0", "--out", str(inst)])
    main(["build", str(inst), "--out", str(circ)])
    text = circ.read_text()
    assert "\nn 2\n" in text
    circ.write_text(text.replace("\nn 2\n", "\nn abc\n"))
    assert main(["simulate", str(circ)]) == 2
    assert "error: line 3: expected integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,line", [
    ("problem ov", "problem banana", 1), ("mode qram", "mode fast", 2),
    ("mode qram", "mode explicit", 2), ("n 3", "n 4", 3),
    ("n 3", "n 7", 4), ("index_width 2", "index_width 9", 4), ("data_width 2", "data_width 0", 6),
    # a relabelled step, and a renamed register
    ("gate 2", "gate 9", 34), ("register nmax", "register foo", 11),
])
def test_simulate_refuses_a_header_that_no_build_writes(tmp_path, capsys, old, new, line):
    inst, circ = tmp_path / "inst.json", tmp_path / "circ.txt"
    main(["gen", "ov", "-n", "3", "-d", "2", "--seed", "0", "--out", str(inst)])
    main(["build", str(inst), "--out", str(circ)])
    lines = circ.read_text().split("\n")
    # every line that is `old`, or starts with `old` and a space, starts with `new` instead
    edited = [new + raw[len(old):] if f"{raw} ".startswith(f"{old} ") else raw for raw in lines]
    assert edited != lines
    circ.write_text("\n".join(edited))
    capsys.readouterr()
    assert main(["simulate", str(circ)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line {line}: no build writes ")


def test_one_timestamp_per_run(tmp_path, monkeypatch, capsys):
    # a clock that moves on every call: the text and the JSON must still agree
    stamps = (f"2026-01-01T00:00:{second:02d}+00:00" for second in range(60))
    monkeypatch.setattr(cli, "_timestamp", lambda: next(stamps))
    inst, out = tmp_path / "inst.json", tmp_path / "report.json"
    main(["gen", "ov", "-n", "2", "-d", "1", "--seed", "0", "--out", str(inst)])
    for argv in (["verify", str(inst)], ["sweep", "--problem", "ov", "--trials", "1"]):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"generated: {json.loads(out.read_text())['generated']}"


@pytest.mark.parametrize("line,message", [
    ("gate 6 MCB 9 100 -1 3 4", "expected integer, got '-1'"),
    ("gate 6 QRAM u -2 3 1 5", "expected integer, got '-2'"),
])
def test_simulate_negative_operand_count_exits_2(tmp_path, capsys, line, message):
    inst, circ = tmp_path / "inst.json", tmp_path / "circ.txt"
    main(["gen", "ov", "-n", "2", "-d", "1", "--seed", "0", "--out", str(inst)])
    main(["build", str(inst), "--out", str(circ)])
    text = circ.read_text()
    circ.write_text(text + line + "\n")
    capsys.readouterr()
    assert main(["simulate", str(circ)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: line {len(text.splitlines()) + 1}: {message}" in captured.err


def test_verify_refuses_branch_cap_before_building(tmp_path, monkeypatch, capsys):
    # r = 11, so 2^33 branches; building would first fill a 2^22-entry table
    inst = tmp_path / "nwt.json"
    inst.write_text('{"schema": "gap-instance-v1", "problem": "nwt", "n": 1100, '
                    '"weight_bound": 1, "edges": []}')

    def refuse(*args, **kwargs):
        raise AssertionError("built before the branch cap was checked")

    monkeypatch.setattr(verification, "build_circuit", refuse)
    assert main(["verify", str(inst)]) == 3
    assert main(["verify", str(inst), "--mode", "explicit"]) == 3
    assert "2^33 branches exceed the 2^24 branch cap" in capsys.readouterr().err


def _refuse_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the caps were checked")

    monkeypatch.setattr(cli, "build_circuit", refuse)


def test_simulate_refuses_branch_cap_before_building(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "nwt.json"
    inst.write_text('{"schema": "gap-instance-v1", "problem": "nwt", "n": 1100, '
                    '"weight_bound": 1, "edges": []}')
    _refuse_building(monkeypatch)
    assert main(["simulate", str(inst)]) == 3
    assert main(["simulate", str(inst), "--mode", "explicit", "--backend", "both"]) == 3
    err = capsys.readouterr().err
    assert err.count("error: 2^33 branches exceed the 2^24 branch cap") == 2


def test_simulate_dense_refuses_branch_cap_before_building(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "nwt.json"
    inst.write_text('{"schema": "gap-instance-v1", "problem": "nwt", "n": 1100, '
                    '"weight_bound": 1, "edges": []}')
    _refuse_building(monkeypatch)
    assert main(["simulate", str(inst), "--backend", "dense"]) == 3
    assert main(["simulate", str(inst), "--backend", "dense", "--mode", "explicit"]) == 3
    err = capsys.readouterr().err
    assert err.count("error: 2^33 branches exceed the 2^24 branch cap") == 2
    # the dense backend has no qubit cap of its own to check before building
    small = tmp_path / "nwt2.json"
    main(["gen", "nwt", "-n", "2", "--bound", "1", "--seed", "0", "--out", str(small)])
    with pytest.raises(AssertionError, match="built before"):
        main(["simulate", str(small), "--backend", "dense"])


def test_verify_dense_refuses_branch_cap_before_building(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "nwt.json"
    inst.write_text('{"schema": "gap-instance-v1", "problem": "nwt", "n": 1100, '
                    '"weight_bound": 1, "edges": []}')

    def refuse(*args, **kwargs):
        raise AssertionError("built before the caps were checked")

    monkeypatch.setattr(verification, "build_circuit", refuse)
    assert main(["verify", str(inst), "--dense"]) == 3
    assert main(["verify", str(inst), "--dense", "--mode", "both"]) == 3
    err = capsys.readouterr().err
    assert err.count("error: 2^33 branches exceed the 2^24 branch cap") == 2


def test_verify_report_and_determinism(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "report.json"
    main(["gen", "3sum", "-n", "4", "--bound", "8", "--seed", "6", "--out", str(inst)])
    assert main(["verify", str(inst), "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", str(inst)]) == 0
    second = capsys.readouterr().out
    assert _strip_volatile(first) == _strip_volatile(second)
    assert first.startswith("generated: ")
    assert first.count("overall: pass") == 2  # qram and explicit sections

    payload = json.loads(out.read_text())
    assert [r["ok"] for r in payload["results"]] == [True, True]
    assert [r["mode"] for r in payload["results"]] == ["qram", "explicit"]


def test_verify_single_mode(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "ov", "-n", "2", "-d", "1", "--seed", "8", "--out", str(inst)])
    assert main(["verify", str(inst), "--mode", "qram"]) == 0
    assert capsys.readouterr().out.count("overall: pass") == 1


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_jobs_is_unknown_outside_sweep(command, tmp_path, capsys):
    # The path sum runs in one thread; only sweep keeps --jobs, for processes.
    inst = tmp_path / "inst.json"
    main(["gen", "ov", "-n", "2", "-d", "1", "--seed", "8", "--out", str(inst)])
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(inst), "--jobs", "2"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --jobs 2" in captured.err


def test_sweep_clean_run(tmp_path, capsys):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["sweep", "--problem", "ov", "--trials", "2", "--out", str(out1)]) == 0
    text1 = capsys.readouterr().out
    assert main(["sweep", "--problem", "ov", "--trials", "2", "--out", str(out2)]) == 0
    text2 = capsys.readouterr().out
    assert _strip_volatile(text1) == _strip_volatile(text2)
    assert "fail=0" in text1

    p1 = _strip_volatile_json(json.loads(out1.read_text()))
    p2 = _strip_volatile_json(json.loads(out2.read_text()))
    assert p1 == p2


def test_sweep_refuses_no_trials(capsys):
    for trials in ("0", "-1"):  # a sweep that checks nothing must not pass
        assert main(["sweep", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "--trials" in captured.err
        assert captured.out == ""


def test_sweep_jobs_equivalence(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["sweep", "--problem", "3sum", "--trials", "1", "--out", str(out1)]) == 0
    assert main(["sweep", "--problem", "3sum", "--trials", "1", "--jobs", "2",
                 "--out", str(out2)]) == 0
    p1 = _strip_volatile_json(json.loads(out1.read_text()))
    p2 = _strip_volatile_json(json.loads(out2.read_text()))
    assert p1 == p2


def test_sweep_pool_has_no_more_workers_than_tasks(capsys, monkeypatch):
    # A fake pool records its size and runs the trials inline, so no worker
    # process is started however large --jobs is.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    argv = ["sweep", "--problem", "ov", "--trials", "1"]
    assert main(argv) == 0
    serial = _strip_volatile(capsys.readouterr().out)
    assert sizes == []
    n_tasks = len(cli.SWEEP_CELLS["ov"])
    for jobs, size in ((1, None), (2, 2), (n_tasks, n_tasks), (1000, n_tasks)):
        sizes.clear()
        assert main([*argv, "--jobs", str(jobs)]) == 0
        assert _strip_volatile(capsys.readouterr().out) == serial
        assert sizes == ([] if size is None else [size])


def test_sweep_mutation_control(capsys, monkeypatch):
    controls = []

    def capture(instance, built, **kwargs):
        controls.append(verify_built(instance, built, **kwargs))
        return controls[-1]

    monkeypatch.setattr(cli, "verify_built", capture)
    assert main(["sweep", "--problem", "ov", "--trials", "1", "--mutation-control"]) == 1
    text = capsys.readouterr().out
    assert "control: mutation detected" in text
    # the dropped phase gate was step 6's only gate, so the step has no row
    [control] = controls
    assert "6" not in control.gates.per_step


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "gapcircuits.cli", "gen", "ov", "-n", "2", "-d", "1",
         "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["problem"] == "ov"
