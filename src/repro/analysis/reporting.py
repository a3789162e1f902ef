"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.timeseries import TimeSeries


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width table."""
    columns = [list(map(str, column))
               for column in zip(*([headers] + [list(r) for r in rows]))]
    widths = [max(len(cell) for cell in column) for column in columns]

    def render(cells: Sequence[object]) -> str:
        return " | ".join(str(cell).ljust(width)
                          for cell, width in zip(cells, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(render(row))
    return "\n".join(lines)


def reliability_report(links: Iterable = (),
                       endpoints: Iterable = ()) -> str:
    """Loss/retry accounting for an impaired run, as aligned tables.

    ``links`` are :class:`repro.net.link.Link` objects (only impaired or
    lossy ones are worth passing); ``endpoints`` are
    :class:`repro.endhost.client.TPPEndpoint` instances.  Together they
    answer the first question a lossy experiment raises: where did the
    probes go, and what did the endpoints do about it?
    """
    sections: List[str] = []
    link_rows = [
        [link.name or "link", link.frames_delivered, link.frames_lost,
         link.frames_impaired_lost, link.frames_corrupted,
         link.frames_duplicated]
        for link in links
    ]
    if link_rows:
        sections.append(format_table(
            ["link", "delivered", "lost", "impair-lost", "corrupted",
             "duplicated"],
            link_rows, title="Link impairments"))
    endpoint_rows = [
        [ep.host.name, ep.probes_sent, ep.responses_received, ep.timeouts,
         ep.retries, ep.orphan_responses,
         ep.duplicate_responses + ep.late_responses, ep.pending_count,
         getattr(ep, "probes_rejected", 0)]
        for ep in endpoints
    ]
    if endpoint_rows:
        sections.append(format_table(
            ["endpoint", "sent", "responses", "timeouts", "retries",
             "orphans", "dup/late", "pending", "rejected"],
            endpoint_rows, title="Probe reliability"))
    if not sections:
        return "(nothing to report)"
    return "\n\n".join(sections)


def fastpath_report(switches: Iterable = ()) -> str:
    """Program-cache and accessor counters per switch, as one table.

    ``switches`` are :class:`repro.asic.switch.TPPSwitch` instances; the
    row answers "did the compile-once fast path actually stay warm?" —
    a healthy run shows hits ≫ misses and zero invalidations unless the
    control plane re-bound statistics mid-run.
    """
    rows = []
    for switch in switches:
        stats = switch.fastpath_stats()
        rows.append([
            switch.name,
            "on" if stats["compile_enabled"] else "off",
            stats["hits"], stats["misses"], stats["evictions"],
            stats["invalidations"], stats["size"],
            stats["accessor_resolutions"],
        ])
    if not rows:
        return "(nothing to report)"
    return format_table(
        ["switch", "fastpath", "hits", "misses", "evictions",
         "invalidated", "cached", "accessors"],
        rows, title="Execution fast path")


def batch_report(switches: Iterable = ()) -> str:
    """Batched-execution counters per switch, as one table.

    ``switches`` are :class:`repro.asic.switch.TPPSwitch` instances.
    Each row answers: how often the ingress drain found same-program
    runs, how many TPPs rode them, how many went through the vectorized
    SRAM write lane versus the packet-at-a-time safe lane, the mean batch
    occupancy (TPPs per batch) — the amortization factor actually
    achieved, as opposed to the one hoped for — and *why* the demoted
    batches were demoted (``reason×count``, from
    :attr:`repro.core.tcpu.TCPU.batch_demotions`).
    """
    rows = []
    for switch in switches:
        stats = switch.fastpath_stats()
        occupancy = stats["batch_occupancy"]
        total = sum(size * count for size, count in occupancy.items())
        batches = sum(occupancy.values())
        mean = (total / batches) if batches else 0.0
        demotions = stats.get("batch_demotions", {})
        demoted = " ".join(
            f"{reason}×{count}"
            for reason, count in sorted(demotions.items())) or "-"
        rows.append([
            switch.name,
            "on" if stats["batch_enabled"] else "off",
            stats["batches_executed"], stats["batched_tpps"],
            stats["vector_batches"], stats["vector_tpps"],
            f"{mean:.1f}", demoted,
        ])
    if not rows:
        return "(nothing to report)"
    return format_table(
        ["switch", "batching", "batches", "tpps", "vec-batches",
         "vec-tpps", "mean-occ", "demoted"],
        rows, title="Batched execution")


def fleet_report(result) -> str:
    """One-screen summary of a :class:`repro.fleet.driver.FleetResult`.

    The headline numbers an operator compares across shard counts: the
    determinism fingerprint (must not move), the admission amortization
    (verifier runs vs logical flows covered), and the measured wall time.
    """
    counters = result.counters
    lines = [
        f"Sharded fleet: {result.n_regions} region(s) on "
        f"{result.shards} shard(s) [{result.transport}], "
        f"{result.rounds} round(s) of {result.quantum_ns} ns",
        f"  fingerprint     {result.fingerprint()}",
        f"  boundary msgs   {result.messages_exchanged}",
        f"  logical flows   {counters.get('logical_flows', 0)} "
        f"({counters.get('probes_sent', 0)} probes, "
        f"{counters.get('responses_received', 0)} echoes)",
        f"  admission       {counters.get('programs_verified', 0)} "
        f"verifier run(s) covered "
        f"{counters.get('flows_admitted', 0)} flow(s) "
        f"({counters.get('verifications_saved', 0)} saved); "
        f"{counters.get('certificates_installed', 0)} certificate(s)",
        f"  switching       {counters.get('packets_switched', 0)} packets, "
        f"{counters.get('tpps_executed', 0)} TPP executions",
        f"  wall time       {result.wall_seconds * 1e3:.2f} ms",
    ]
    return "\n".join(lines)


def race_report(switches: Iterable = (),
                policies: Iterable = ()) -> str:
    """Fleet race-table counters per switch / policy, as aligned tables.

    ``switches`` are :class:`repro.asic.switch.TPPSwitch` instances
    (their TCPU's certificate fleet); ``policies`` are
    :class:`repro.control.security.VerifierPolicy` instances (the edge
    admission fleet).  Each row answers: how many programs share SRAM,
    how much incremental work the race table did, and whether anything
    racy got in (or was turned away).
    """
    sections: List[str] = []
    switch_rows = []
    for switch in switches:
        tcpu = switch.tcpu
        report = tcpu.fleet.report()
        switch_rows.append([
            switch.name, tcpu.race_mode, len(tcpu.fleet),
            report.pairs_checked, tcpu.fleet.pair_checks,
            len(report.errors), len(report.warnings),
            len(tcpu.race_conflicts), tcpu.certificates_refused,
            tcpu.certificates_swept,
        ])
    if switch_rows:
        sections.append(format_table(
            ["switch", "mode", "fleet", "pairs", "incr-checks",
             "errors", "warnings", "conflicts", "refused", "swept"],
            switch_rows, title="Certificate race table (TCPU)"))
    policy_rows = []
    for index, policy in enumerate(policies):
        report = policy.fleet.report()
        policy_rows.append([
            f"policy{index}", policy.race_mode, len(policy.fleet),
            report.pairs_checked, policy.fleet.pair_checks,
            len(report.errors), len(report.warnings),
            policy.tpps_racy, policy.tpps_rejected,
        ])
    if policy_rows:
        sections.append(format_table(
            ["policy", "mode", "fleet", "pairs", "incr-checks",
             "errors", "warnings", "racy", "rejected"],
            policy_rows, title="Admission race table (VerifierPolicy)"))
    if not sections:
        return "(nothing to report)"
    return "\n\n".join(sections)


def ascii_plot(series: TimeSeries, width: int = 72, height: int = 16,
               title: str = "", y_min: Optional[float] = None,
               y_max: Optional[float] = None) -> str:
    """A quick terminal plot of a time series (for benches and examples)."""
    samples = series.samples()
    if not samples:
        return f"{title} (no data)"
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    lo = min(values) if y_min is None else y_min
    hi = max(values) if y_max is None else y_max
    if hi <= lo:
        hi = lo + 1.0
    t0, t1 = times[0], times[-1]
    span = max(1, t1 - t0)

    grid = [[" "] * width for _ in range(height)]
    for time_ns, value in samples:
        x = min(width - 1, int((time_ns - t0) / span * (width - 1)))
        clipped = min(hi, max(lo, value))
        y = min(height - 1, int((clipped - lo) / (hi - lo) * (height - 1)))
        grid[height - 1 - y][x] = "*"

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{hi:>10.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{lo:>10.3g} +" + "-" * width)
    lines.append(" " * 12 + f"t = {t0 / 1e9:.3g}s ... {t1 / 1e9:.3g}s")
    return "\n".join(lines)
