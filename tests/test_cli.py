"""End-to-end command line behavior and exit codes.

Exit code map under test: 0 pass, 1 failed check, 2 bad input, 3 cap hit.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gapcircuits import cli
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
    assert main(["gen", "3sum", "-n", "2"]) == 2  # missing --bound
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


def test_dense_cap_exit(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "nwt", "-n", "2", "--bound", "1", "--seed", "0", "--out", str(inst)])
    assert main(["simulate", str(inst), "--backend", "dense"]) == 3  # 26 qubits
    assert main(["verify", str(inst), "--dense"]) == 3
    capsys.readouterr()
    # the flag is honored: a 16-qubit instance fails a deliberately low cap
    main(["gen", "ov", "-n", "3", "-d", "2", "--seed", "0", "--out", str(inst)])
    assert main(["simulate", str(inst), "--backend", "dense", "--dense-cap", "15"]) == 3
    assert main(["simulate", str(inst), "--backend", "dense", "--dense-cap", "16"]) == 0


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


def test_sweep_jobs_equivalence(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["sweep", "--problem", "3sum", "--trials", "1", "--out", str(out1)]) == 0
    assert main(["sweep", "--problem", "3sum", "--trials", "1", "--jobs", "2",
                 "--out", str(out2)]) == 0
    p1 = _strip_volatile_json(json.loads(out1.read_text()))
    p2 = _strip_volatile_json(json.loads(out2.read_text()))
    assert p1 == p2


def test_sweep_mutation_control(capsys, monkeypatch):
    controls = []

    def capture(instance, built, **kwargs):
        controls.append(built.circuit)
        return verify_built(instance, built, **kwargs)

    monkeypatch.setattr(cli, "verify_built", capture)
    assert main(["sweep", "--problem", "ov", "--trials", "1", "--mutation-control"]) == 1
    text = capsys.readouterr().out
    assert "control: mutation detected" in text
    # the dropped phase gate takes its step tag with it
    [circuit] = controls
    assert len(circuit.gates) == len(circuit.steps)


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "gapcircuits.cli", "gen", "ov", "-n", "2", "-d", "1",
         "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["problem"] == "ov"
