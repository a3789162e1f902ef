"""Table and plot rendering."""

from repro.analysis.reporting import ascii_plot, counters_table, format_table
from repro.analysis.timeseries import TimeSeries
from repro.sim.trace import snapshot


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert all("|" in line for line in (lines[0], lines[2], lines[3]))
        # columns aligned: separators in the same position
        positions = {line.index("|") for line in lines if "|" in line}
        assert len(positions) == 1

    def test_title(self):
        table = format_table(["x"], [[1]], title="Table 9")
        assert table.splitlines()[0] == "Table 9"

    def test_numbers_stringified(self):
        table = format_table(["a"], [[1.25]])
        assert "1.25" in table


class TestAsciiPlot:
    def _series(self):
        series = TimeSeries("s")
        for i in range(100):
            series.append(i * 1_000_000, i % 10)
        return series

    def test_contains_marks(self):
        plot = ascii_plot(self._series(), width=40, height=8)
        assert "*" in plot

    def test_title_shown(self):
        plot = ascii_plot(self._series(), title="R(t)/C")
        assert "R(t)/C" in plot

    def test_empty_series(self):
        assert "(no data)" in ascii_plot(TimeSeries(), title="x")

    def test_y_bounds_respected(self):
        plot = ascii_plot(self._series(), y_min=0, y_max=100)
        assert "100" in plot

    def test_flat_series_does_not_crash(self):
        series = TimeSeries()
        series.append(0, 5.0)
        series.append(10, 5.0)
        plot = ascii_plot(series)
        assert "*" in plot


class TestRaceReport:
    """The race-table counters of a TCPU and an admission policy, read
    with ``snapshot`` and rendered with ``counters_table``."""

    def test_empty_inputs(self):
        assert counters_table({}).splitlines() == ["counter", "-------"]
        assert counters_table({"sw0": {}}).splitlines()[0].split() == [
            "counter", "|", "sw0"]

    def test_switch_and_policy_rows(self):
        from repro.control.security import VerifierPolicy
        from repro.core.assembler import assemble
        from repro.core.memory_map import MemoryMap
        from repro.core.mmu import MMU
        from repro.core.tcpu import TCPU
        from repro.core.verifier import verify_program

        tcpu = TCPU(MMU(name="sw0"), race_mode="warn")
        memory_map = MemoryMap.standard()
        for source in (".memory 1\nSTORE [Sram:Word0], [Packet:0]",
                       ".memory 2\nSTORE [Sram:Word0], [Packet:1]"):
            cert = verify_program(assemble(source),
                                  memory_map=memory_map).certificate
            assert tcpu.trust(cert)
        policy = VerifierPolicy()
        # Two writers to Word0: one pair checked, one error recorded.
        switch_row = snapshot(tcpu, tcpu.fleet)
        assert {name: switch_row[name] for name in (
            "fleet_size", "pair_checks", "race_errors", "race_warnings",
            "race_conflict_count", "certificates_refused",
            "certificates_swept")} == {
            "fleet_size": 2, "pair_checks": 1, "race_errors": 1,
            "race_warnings": 0, "race_conflict_count": 1,
            "certificates_refused": 0, "certificates_swept": 0}
        policy_row = snapshot(policy, policy.fleet)
        assert policy_row["fleet_size"] == policy_row["tpps_racy"] == 0
        out = counters_table({"sw0": switch_row, "policy0": policy_row})
        header = out.splitlines()[0].split()
        assert header == ["counter", "|", "sw0", "|", "policy0"]
        pairs = [line.split("|") for line in out.splitlines()
                 if line.startswith("pair_checks ")]
        assert [cell.strip() for cell in pairs[0][1:]] == ["1", "0"]
        racy = [line for line in out.splitlines()
                if line.startswith("tpps_racy ")]
        assert racy[0].split("|")[1].strip() == "-"

