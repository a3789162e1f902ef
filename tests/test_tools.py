"""Command-line tools."""

import json

import pytest

from repro.tools import run_experiment, tppasm


class TestTppasmAssemble:
    def test_assemble_from_file(self, tmp_path, capsys):
        source = tmp_path / "probe.tpp"
        source.write_text("PUSH [Queue:QueueSize]\n")
        assert tppasm.main(["assemble", str(source), "--hops", "3"]) == 0
        out = capsys.readouterr().out
        assert "instructions: 1 (4 bytes)" in out
        assert "wire bytes:" in out

    def test_assemble_with_symbols(self, tmp_path, capsys):
        source = tmp_path / "update.tpp"
        source.write_text(
            "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Target\n")
        code = tppasm.main(["assemble", str(source),
                            "--symbols", "Target=7"])
        assert code == 0

    def test_assemble_error_reported(self, tmp_path, capsys):
        source = tmp_path / "bad.tpp"
        source.write_text("FROB [Queue:QueueSize]\n")
        assert tppasm.main(["assemble", str(source)]) == 1
        assert "assembly error" in capsys.readouterr().err

    def test_bad_symbol_syntax(self, tmp_path):
        source = tmp_path / "x.tpp"
        source.write_text("NOP\n")
        with pytest.raises(SystemExit):
            tppasm.main(["assemble", str(source), "--symbols", "oops"])


class TestTppasmRoundTrip:
    def test_assemble_then_disassemble(self, tmp_path, capsys):
        source = tmp_path / "probe.tpp"
        source.write_text("PUSH [Switch:SwitchID]\n")
        tppasm.main(["assemble", str(source), "--hops", "2"])
        out = capsys.readouterr().out
        hex_lines = [line.split(":", 1)[1].strip()
                     for line in out.splitlines()
                     if line.strip().startswith(("0000:", "0010:",
                                                 "0020:"))]
        hexbytes = "".join(hex_lines).replace(" ", "")
        assert tppasm.main(["disassemble", hexbytes]) == 0
        out = capsys.readouterr().out
        assert "PUSH [Switch:SwitchID]" in out

    def test_disassemble_garbage(self, capsys):
        assert tppasm.main(["disassemble", "deadbeef"]) == 1
        assert "decode error" in capsys.readouterr().err


class TestTppasmMemmap:
    def test_memmap_lists_namespaces(self, capsys):
        assert tppasm.main(["memmap"]) == 0
        out = capsys.readouterr().out
        assert "Queue:QueueSize" in out
        assert "Switch:SwitchID" in out
        assert "Link:RX-Utilization" in out
        assert "Sram:Word0..Word1023" in out


class TestRunExperiment:
    def test_fig1(self, capsys):
        assert run_experiment.main(["fig1", "--switches", "2"]) == 0
        out = capsys.readouterr().out
        assert "hop 0" in out and "hop 1" in out

    def test_microburst(self, capsys):
        assert run_experiment.main(
            ["microburst", "--duration", "0.3"]) == 0
        assert "micro-bursts detected" in capsys.readouterr().out

    def test_ndb(self, capsys):
        assert run_experiment.main(["ndb"]) == 0
        out = capsys.readouterr().out
        assert "violations:" in out
        assert "wrong-path" in out or "unknown-rule" in out

    def test_fig2_short(self, capsys):
        assert run_experiment.main(["fig2", "--duration", "1.5"]) == 0
        assert "R(t)/C" in capsys.readouterr().out


class TestTppasmLint:
    GOOD = "PUSH [Queue:QueueSize]\n"
    BAD = "POP [Sram:Word0]\n"  # stack underflow (TPP003)
    WARN = "CEXEC [Switch:SwitchID], 0x0F, 0xFF\nNOP\n"  # dead code

    def write(self, tmp_path, text, name="prog.tpp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_program_exits_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, self.GOOD)
        assert tppasm.main(["lint", path, "--hops", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified: 0 error(s)" in out

    def test_bad_program_exits_one_with_code(self, tmp_path, capsys):
        path = self.write(tmp_path, self.BAD)
        assert tppasm.main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "TPP003" in out
        assert f"{path}:1:" in out  # file:line diagnostics

    def test_strict_fails_on_warnings(self, tmp_path, capsys):
        path = self.write(tmp_path, self.WARN)
        assert tppasm.main(["lint", path]) == 0
        capsys.readouterr()
        assert tppasm.main(["lint", path, "--strict"]) == 1
        assert "TPP008" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        path = self.write(tmp_path, self.BAD)
        assert tppasm.main(["lint", path, "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False
        assert blob["diagnostics"][0]["code"] == "TPP003"
        assert blob["diagnostics"][0]["fault"] == "STACK_UNDERFLOW"

    def test_json_certificate_on_clean_program(self, tmp_path, capsys):
        path = self.write(tmp_path, self.GOOD)
        assert tppasm.main(["lint", path, "--hops", "1",
                            "--max-hops", "1", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is True
        assert blob["certificate"]["n_instructions"] == 1

    def test_max_hops_budget_enforced(self, tmp_path, capsys):
        # One hop of stack, a two-hop budget: provably overflows.
        path = self.write(tmp_path, self.GOOD)
        code = tppasm.main(["lint", path, "--hops", "1",
                            "--max-hops", "2"])
        assert code == 1
        assert "TPP002" in capsys.readouterr().out

    def test_max_instructions_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, "NOP\n" * 4)
        assert tppasm.main(["lint", path,
                            "--max-instructions", "3"]) == 1
        assert "TPP001" in capsys.readouterr().out

    def test_unparseable_program_exits_one(self, tmp_path, capsys):
        path = self.write(tmp_path, "FROB [Queue:QueueSize]\n")
        assert tppasm.main(["lint", path]) == 1
        assert "assembly error" in capsys.readouterr().err

    def test_unparseable_program_json(self, tmp_path, capsys):
        path = self.write(tmp_path, "FROB [Queue:QueueSize]\n")
        assert tppasm.main(["lint", path, "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False and "assembly error" in blob["error"]

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert tppasm.main(["lint", str(tmp_path / "nope.tpp")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_symbols_flag(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $T\n")
        assert tppasm.main(["lint", path, "--symbols", "T=7"]) == 0


class TestTppasmJsonModes:
    def test_assemble_json(self, tmp_path, capsys):
        path = tmp_path / "p.tpp"
        path.write_text("PUSH [Queue:QueueSize]\n")
        assert tppasm.main(["assemble", str(path), "--hops", "2",
                            "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is True
        assert blob["instructions"] == 1
        assert blob["wire_hex"]

    def test_assemble_json_wire_hex_decodes(self, tmp_path, capsys):
        path = tmp_path / "p.tpp"
        path.write_text("PUSH [Switch:SwitchID]\n")
        tppasm.main(["assemble", str(path), "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert tppasm.main(["disassemble", blob["wire_hex"],
                            "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["ok"] is True
        assert "PUSH [Switch:SwitchID]" in decoded["assembly"]

    def test_assemble_lint_gates_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.tpp"
        path.write_text("POP [Sram:Word0]\n")
        assert tppasm.main(["assemble", str(path)]) == 0  # no lint: fine
        capsys.readouterr()
        assert tppasm.main(["assemble", str(path), "--lint"]) == 1
        assert "TPP003" in capsys.readouterr().out

    def test_assemble_lint_json(self, tmp_path, capsys):
        path = tmp_path / "bad.tpp"
        path.write_text("POP [Sram:Word0]\n")
        assert tppasm.main(["assemble", str(path), "--lint",
                            "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False
        assert blob["lint"]["diagnostics"][0]["code"] == "TPP003"

    def test_assemble_error_json(self, tmp_path, capsys):
        path = tmp_path / "bad.tpp"
        path.write_text("FROB x\n")
        assert tppasm.main(["assemble", str(path), "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False

    def test_disassemble_garbage_json(self, capsys):
        assert tppasm.main(["disassemble", "deadbeef", "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False and "decode error" in blob["error"]

    def test_memmap_json(self, capsys):
        assert tppasm.main(["memmap", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in blob["entries"]}
        assert "Queue:QueueSize" in names
        assert any(r["name"].startswith("Sram:") for r in blob["ranges"])


class TestTppasmRacecheck:
    WRITER_A = ".memory 1\nSTORE [Sram:Word0], [Packet:0]\n"
    WRITER_B = ".memory 2\nSTORE [Sram:Word0], [Packet:1]\n"
    READER = "PUSH [Sram:Word0]\n"
    DISJOINT = ".memory 1\nSTORE [Sram:Word9], [Packet:0]\n"

    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    def test_clean_fleet_exits_zero(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER_A)
        b = self.write(tmp_path, "b.tpp", self.DISJOINT)
        assert tppasm.main(["racecheck", a, b]) == 0
        assert "race-free" in capsys.readouterr().out

    def test_racy_fleet_exits_nonzero(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER_A)
        b = self.write(tmp_path, "b.tpp", self.WRITER_B)
        assert tppasm.main(["racecheck", a, b]) == 1
        out = capsys.readouterr().out
        assert "TPP020" in out
        assert "a.tpp" in out and "b.tpp" in out

    def test_json_shape(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER_A)
        b = self.write(tmp_path, "b.tpp", self.WRITER_B)
        assert tppasm.main(["racecheck", "--json", a, b]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False
        assert blob["race_free"] is False
        codes = [d["code"] for d in blob["diagnostics"]]
        assert codes == ["TPP020"]
        assert len(blob["programs"]) == 2
        assert blob["diagnostics"][0]["word"] == 0

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER_A)
        b = self.write(tmp_path, "b.tpp", self.READER)
        # Read-write is a warning: admitted normally...
        assert tppasm.main(["racecheck", a, b]) == 0
        capsys.readouterr()
        # ...but --strict demands a fully race-free fleet.
        assert tppasm.main(["racecheck", "--strict", a, b]) == 1
        assert "TPP021" in capsys.readouterr().out

    def test_task_isolation_respected(self, tmp_path, capsys):
        """Same sources on different --task values never conflict with
        each other's run: each invocation models ONE task's fleet."""
        a = self.write(tmp_path, "a.tpp", self.WRITER_A)
        b = self.write(tmp_path, "b.tpp", self.WRITER_B)
        assert tppasm.main(["racecheck", "--task", "3", a, b]) == 1
        capsys.readouterr()
        assert tppasm.main(["racecheck", "--json",
                            "--task", "3", a, b]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["diagnostics"][0]["task_id"] == 3

    def test_assembler_error_reported(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.tpp", "FROB [Sram:Word0]\n")
        assert tppasm.main(["racecheck", bad]) == 1
        assert "assembly error" in capsys.readouterr().err

    def test_single_program_is_trivially_race_free(self, tmp_path,
                                                   capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER_A)
        assert tppasm.main(["racecheck", a]) == 0
        assert "race-free" in capsys.readouterr().out


class TestTppasmRacecheckBindings:
    """Per-switch bindings: --fence/--sram refinements, --switches
    multi-switch reports, and the per-pair index contract of the JSON
    diagnostics."""

    CLAIM_A = "CSTORE [Sram:Word0], 0, 1\n"
    CLAIM_B = "CSTORE [Sram:Word0], 2, 3\nNOP\n"
    WRITER = ".memory 1\nSTORE [Sram:Word0], [Packet:0]\n"
    READER = "PUSH [Sram:Word0]\n"

    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    def test_sram_binding_discharges_dead_claims(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.CLAIM_A)
        b = self.write(tmp_path, "b.tpp", self.CLAIM_B)
        # Unbound: claim-coordinated sharing note survives --strict.
        assert tppasm.main(["racecheck", "--strict", a, b]) == 1
        assert "TPP023" in capsys.readouterr().out
        # word0=5 strands both claim epochs: fully race-free.
        assert tppasm.main(["racecheck", "--strict",
                            "--sram", "0=5", a, b]) == 0
        assert "race-free" in capsys.readouterr().out

    def test_fence_binding_parses_register_names(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER)
        b = self.write(tmp_path, "b.tpp", self.READER)
        assert tppasm.main(["racecheck", "--fence",
                            "Switch:SwitchID=7", a, b]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            tppasm.main(["racecheck", "--fence", "No:Such=1", a, b])

    def test_bad_sram_binding_rejected(self, tmp_path):
        a = self.write(tmp_path, "a.tpp", self.WRITER)
        with pytest.raises(SystemExit):
            tppasm.main(["racecheck", "--sram", "zero", a])

    def test_switches_file_reports_per_switch(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.CLAIM_A)
        b = self.write(tmp_path, "b.tpp", self.CLAIM_B)
        spec = tmp_path / "switches.json"
        spec.write_text(json.dumps({"switches": [
            {"name": "tor-1", "sram_values": {"0": 0}},
            {"name": "tor-2", "sram_values": {"0": 5}},
        ]}))
        assert tppasm.main(["racecheck", "--switches", str(spec),
                            a, b]) == 0
        out = capsys.readouterr().out
        assert "-- switch tor-1 --" in out
        assert "-- switch tor-2 --" in out
        assert "fleet-wide:" in out

    def test_switches_json_shape(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.CLAIM_A)
        b = self.write(tmp_path, "b.tpp", self.CLAIM_B)
        spec = tmp_path / "switches.json"
        spec.write_text(json.dumps({"switches": [
            {"name": "tor-1", "sram_values": {"0": 0}},
            {"name": "tor-2", "sram_values": {"0": 5}},
        ]}))
        assert tppasm.main(["racecheck", "--json", "--switches",
                            str(spec), a, b]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob) == {"ok", "race_free", "racy_switches",
                             "switches"}
        assert blob["ok"] is True
        assert blob["race_free"] is False  # tor-1 keeps a warning
        assert blob["switches"]["tor-2"]["race_free"] is True
        codes = [d["code"]
                 for d in blob["switches"]["tor-1"]["diagnostics"]]
        assert codes == ["TPP021"]

    def test_switches_strict_gates_on_any_switch(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.CLAIM_A)
        b = self.write(tmp_path, "b.tpp", self.CLAIM_B)
        spec = tmp_path / "switches.json"
        spec.write_text(json.dumps({"switches": [
            {"name": "tor-1", "sram_values": {"0": 0}},
            {"name": "tor-2", "sram_values": {"0": 5}},
        ]}))
        assert tppasm.main(["racecheck", "--strict", "--switches",
                            str(spec), a, b]) == 1

    def test_missing_switches_file_reported(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.tpp", self.WRITER)
        assert tppasm.main(["racecheck", "--switches",
                            str(tmp_path / "nope.json"), a]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_tpp021_json_indices_are_symmetric(self, tmp_path, capsys):
        """TPP021 carries the offending indices of BOTH programs, in
        both argument orders — the same per-pair shape TPP020 emits."""
        writer = self.write(tmp_path, "w.tpp", self.WRITER)
        reader = self.write(tmp_path, "r.tpp", self.READER)
        for sources in ((writer, reader), (reader, writer)):
            assert tppasm.main(["racecheck", "--json", *sources]) == 0
            blob = json.loads(capsys.readouterr().out)
            diag = blob["diagnostics"][0]
            assert diag["code"] == "TPP021"
            assert diag["instructions_a"], diag
            assert diag["instructions_b"], diag
