"""Differential tests: incremental fair-share solver vs the reference.

The incremental allocator (per-port registries, dirty-component re-solve,
lazy completion heap) must allocate the same max-min rates as the
retained rebuild-the-world reference solver on any sequence of flow
arrivals, departures, and NIC-rate changes.  These tests drive both
solvers through identical randomized histories and compare rates at
every step, plus the degenerate topologies and the accounting bugfixes.
"""

import random

import pytest

from repro import units
from repro.obs.tracer import capture
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Switch

GBPS = units.gbps(1)


def _build(solver, rates):
    sim = Simulator()
    switch = Switch(sim, solver=solver)
    nics = [switch.attach(Nic(f"n{i}", rate)) for i, rate in enumerate(rates)]
    return sim, switch, nics


def _random_script(rng, num_nics, num_ops):
    """A reproducible history: (time, op, args) tuples in time order."""
    script = []
    now = 0.0
    for _ in range(num_ops):
        now += rng.uniform(0.0, 0.4)
        kind = rng.random()
        if kind < 0.75:
            src = rng.randrange(num_nics)
            dst = rng.randrange(num_nics - 1)
            if dst >= src:
                dst += 1
            nbytes = rng.randrange(1, 4 * units.GiB)
            script.append((now, "transfer", (src, dst, nbytes)))
        else:
            nic = rng.randrange(num_nics)
            factor = rng.choice([0.1, 0.5, 2.0, 1.0])
            script.append((now, "rates", (nic, factor)))
    return script


def _replay(solver, rates, script):
    """Run a script against one switch, snapshotting rates at every op."""
    sim, switch, nics = _build(solver, rates)
    base = [(nic.tx_rate, nic.rx_rate) for nic in nics]
    snapshots = []

    def driver():
        for at, op, args in script:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if op == "transfer":
                src, dst, nbytes = args
                switch.transfer(nics[src], nics[dst], nbytes)
            else:
                index, factor = args
                switch.set_nic_rates(
                    nics[index],
                    tx_rate=base[index][0] * factor,
                    rx_rate=base[index][1] * factor,
                )
            snapshots.append((sim.now, switch.flow_rates()))

    sim.process(driver())
    sim.run()
    stats = [
        (n.stats.bytes_sent, n.stats.bytes_received, n.stats.flows_started, n.stats.flows_finished)
        for n in nics
    ]
    return snapshots, stats, sim.now


@pytest.mark.parametrize("seed", range(8))
def test_randomized_differential_incremental_vs_reference(seed):
    rng = random.Random(seed)
    num_nics = rng.randrange(3, 9)
    rates = [rng.choice([GBPS, 2 * GBPS, 10 * GBPS]) for _ in range(num_nics)]
    script = _random_script(rng, num_nics, num_ops=40)

    inc_snaps, inc_stats, inc_end = _replay("incremental", rates, script)
    ref_snaps, ref_stats, ref_end = _replay("reference", rates, script)

    assert len(inc_snaps) == len(ref_snaps)
    for (t_inc, flows_inc), (t_ref, flows_ref) in zip(inc_snaps, ref_snaps):
        assert t_inc == pytest.approx(t_ref, rel=1e-9)
        assert len(flows_inc) == len(flows_ref)
        for (src_i, dst_i, rem_i, rate_i), (src_r, dst_r, rem_r, rate_r) in zip(
            flows_inc, flows_ref
        ):
            assert (src_i, dst_i) == (src_r, dst_r)
            assert rate_i == pytest.approx(rate_r, rel=1e-9)
            assert rem_i == pytest.approx(rem_r, rel=1e-9, abs=1e-2)
    # Byte accounting is integral and must agree exactly; completion of
    # the whole history must land at (numerically) the same instant.
    assert inc_stats == ref_stats
    assert inc_end == pytest.approx(ref_end, rel=1e-9)


def test_degenerate_topology_all_flows_one_port():
    """N senders converge on a single receive port: one shared bottleneck."""
    n = 12
    rate = units.gbps(10)
    for solver in ("incremental", "reference"):
        sim, switch, nics = _build(solver, [rate] * (n + 1))
        sink = nics[0]

        def body(src):
            yield switch.transfer(src, sink, int(rate))

        for src in nics[1:]:
            sim.process(body(src))
        # After startup, every flow gets exactly 1/N of the receive port.
        sim.run(until=0.001)
        rows = switch.flow_rates()
        assert len(rows) == n
        for _src, _dst, _rem, flow_rate in rows:
            assert flow_rate == pytest.approx(rate / n, rel=1e-9)
        sim.run()
        assert switch.active_flows == 0
        assert sink.stats.bytes_received == n * int(rate)


def test_degenerate_topology_one_sender_fan_out():
    """One transmit port fans out to N receivers: tx is the bottleneck."""
    n = 8
    rate = units.gbps(10)
    sim, switch, nics = _build("incremental", [rate] * (n + 1))
    source = nics[0]

    def body(dst):
        yield switch.transfer(source, dst, int(rate))

    for dst in nics[1:]:
        sim.process(body(dst))
    sim.run(until=0.001)
    for _src, _dst, _rem, flow_rate in switch.flow_rates():
        assert flow_rate == pytest.approx(rate / n, rel=1e-9)
    sim.run()
    assert source.stats.bytes_sent == n * int(rate)


def test_single_flow_fast_path_runs_at_slower_endpoint():
    sim, switch, (a, b) = _build("incremental", [units.gbps(10), units.gbps(1)])

    def body():
        duration = yield switch.transfer(a, b, int(units.gbps(1)))
        return duration

    proc = sim.process(body())
    sim.run(until=0.001)
    ((_s, _d, _rem, rate),) = switch.flow_rates()
    assert rate == pytest.approx(units.gbps(1))  # min(tx, rx), one round
    sim.run()
    assert proc.value == pytest.approx(1.0, rel=0.01)


def test_disjoint_components_solved_independently():
    """An arrival in one component leaves the other's rates untouched."""
    rate = units.gbps(10)
    sim, switch, nics = _build("incremental", [rate] * 6)

    def body(src, dst, nbytes):
        yield switch.transfer(src, dst, nbytes)

    # Component A: n0 -> n1.  Component B: n2 -> n3, joined later by
    # n4 -> n3 (shares n3's receive port).
    sim.process(body(nics[0], nics[1], int(rate)))
    sim.process(body(nics[2], nics[3], int(rate)))

    def late_arrival():
        yield sim.timeout(0.25)
        switch.transfer(nics[4], nics[3], int(rate))
        rows = {(src, dst): r for src, dst, _rem, r in switch.flow_rates()}
        # Component A still runs at line rate; component B split in half.
        assert rows[("n0", "n1")] == pytest.approx(rate, rel=1e-9)
        assert rows[("n2", "n3")] == pytest.approx(rate / 2, rel=1e-9)
        assert rows[("n4", "n3")] == pytest.approx(rate / 2, rel=1e-9)

    sim.process(late_arrival())
    sim.run()
    assert switch.active_flows == 0


def test_zero_byte_transfer_closes_accounting():
    """Zero-byte flows finish: started/finished pair up, no bytes banked.

    The send has moved its bytes at once, so the audit balances inside
    its base-latency window as well as after delivery.
    """
    sim, switch, (a, b) = _build("incremental", [units.gbps(10)] * 2)
    done = switch.transfer(a, b, 0)
    sim.run(until=Switch.BASE_LATENCY / 2)
    assert not done.triggered
    assert switch.audit_flow_conservation() == []
    sim.run()
    assert done.value == pytest.approx(Switch.BASE_LATENCY)
    assert switch.audit_flow_conservation() == []
    assert a.stats.flows_started == 1
    assert a.stats.flows_finished == 1
    assert a.stats.bytes_sent == 0
    assert b.stats.bytes_received == 0
    assert switch.total_bytes == 0


def test_nic_degradation_differential():
    """Mid-flight rate changes: both solvers bank and re-solve alike."""
    rate = units.gbps(10)
    ends = {}
    for solver in ("incremental", "reference"):
        sim, switch, (a, b, c) = _build(solver, [rate] * 3)

        def body(src, dst, nbytes):
            yield switch.transfer(src, dst, nbytes)

        def chaos():
            yield sim.timeout(0.25)
            switch.set_nic_rates(c, rx_rate=rate / 10)
            yield sim.timeout(0.5)
            switch.set_nic_rates(c, rx_rate=rate)

        sim.process(body(a, c, int(rate)))
        sim.process(body(b, c, int(rate)))
        sim.process(chaos())
        sim.run()
        ends[solver] = sim.now
    assert ends["incremental"] == pytest.approx(ends["reference"], rel=1e-9)


def test_idle_rate_change_is_a_no_op():
    """Changing rates on a NIC with no flows must not disturb anything."""
    sim, switch, (a, b, c) = _build("incremental", [units.gbps(10)] * 3)

    def body():
        yield switch.transfer(a, b, 10 * units.MiB)

    def tweak():
        yield sim.timeout(0.001)
        switch.set_nic_rates(c, tx_rate=units.gbps(1))

    sim.process(body())
    sim.process(tweak())
    sim.run()
    assert switch.active_flows == 0
    assert a.stats.flows_finished == 1


# ----------------------------------------------------------------------
# Star fast path vs the generic bank/solve path, bit for bit.
# ----------------------------------------------------------------------
def _star_script(rng, fan_in, num_spokes, num_ops):
    """A star-shaped history around NIC 0: (time, op, args) in time order.

    Spokes are drawn at random, so a spoke now and then carries two flows
    (the component is then no star); about a third of the ops land on the
    previous op's instant, exercising the batched same-instant solve.
    """
    script = []
    now = 0.0
    for _ in range(num_ops):
        if rng.random() > 0.35:
            now += rng.uniform(0.0, 0.05)
        if rng.random() < 0.85:
            spoke = rng.randrange(1, num_spokes + 1)
            src, dst = (spoke, 0) if fan_in else (0, spoke)
            script.append((now, "transfer", (src, dst, rng.randrange(1, 64 * units.MiB))))
        else:
            nic = rng.randrange(num_spokes + 1)
            script.append((now, "rates", (nic, rng.choice([0.1, 0.5, 2.0, 1.0]))))
    return script


def _replay_exact(rates, script, traced=False):
    """Replay ``script``; record raw solver state after every solve.

    Every solve ends by re-arming the completion timer, so wrapping
    ``_arm_timer`` sees each post-solve state: every active flow's rate,
    banked remaining, bank time and deadline, plus the live heap.
    Completions are recorded in the order their callbacks fire.  With
    ``traced``, the run records a trace and also returns its events.
    """
    if traced:
        with capture() as tracer:
            result = _replay_exact(rates, script)
        events = [(e.phase, e.category, e.name, e.ts, e.dur, e.attrs) for e in tracer.events]
        return result, events
    sim, switch, nics = _build("incremental", rates)
    base = [(nic.tx_rate, nic.rx_rate) for nic in nics]
    states = []
    completions = []
    star_passes = []
    arm_timer = switch._arm_timer
    star_pass = switch._star_pass

    def recording_arm_timer(now):
        states.append((
            now,
            [
                (f.seq, f.rate, f.remaining, f.last_update, f.deadline)
                for f in switch._flows
            ],
            sorted((d, s, f.seq) for d, s, f in switch._completions),
        ))
        arm_timer(now)

    def counting_star_pass(hub, now):
        star_passes.append(now)
        return star_pass(hub, now)

    switch._arm_timer = recording_arm_timer
    switch._star_pass = counting_star_pass

    def play():
        for index, (at, op, args) in enumerate(script):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if op == "transfer":
                src, dst, nbytes = args
                done = switch.transfer(nics[src], nics[dst], nbytes)
                done.add_callback(
                    lambda ev, index=index: completions.append((index, sim.now, ev.value))
                )
            else:
                nic, factor = args
                switch.set_nic_rates(
                    nics[nic], tx_rate=base[nic][0] * factor, rx_rate=base[nic][1] * factor
                )

    sim.process(play())
    sim.run()
    assert switch.active_flows == 0
    stats = [
        (n.stats.bytes_sent, n.stats.bytes_received, n.stats.flows_started, n.stats.flows_finished)
        for n in nics
    ]
    return states, completions, stats, sim.now, len(star_passes)


def _assert_star_matches_generic(monkeypatch, rates, script):
    """Star path vs the generic path (the oracle: star detection patched
    out), untraced and traced; returns the star-pass count."""
    star = _replay_exact(rates, script)
    star_traced, star_events = _replay_exact(rates, script, traced=True)
    with monkeypatch.context() as patch:
        patch.setattr(Switch, "_star_hub", staticmethod(lambda dirty_ports: None))
        generic = _replay_exact(rates, script)
        generic_traced, generic_events = _replay_exact(rates, script, traced=True)
    assert generic[4] == generic_traced[4] == 0  # the oracle never took the star pass
    # Exact: states, completions, stats and end time.
    assert star[:4] == generic[:4] == star_traced[:4] == generic_traced[:4]
    assert star_events == generic_events
    assert star_traced[4] == star[4]  # the star pass runs with tracing on or off
    return star[4]


@pytest.mark.parametrize("fan_in", [True, False], ids=["many-to-one", "one-to-many"])
@pytest.mark.parametrize("seed", range(6))
def test_star_pass_matches_generic_path_exactly(monkeypatch, fan_in, seed):
    rng = random.Random(1000 * seed + fan_in)
    num_spokes = rng.randrange(6, 18)
    rates = [units.gbps(10)] + [
        rng.choice([units.gbps(10), units.gbps(1)]) for _ in range(num_spokes)
    ]
    script = _star_script(rng, fan_in, num_spokes, num_ops=60)
    assert _assert_star_matches_generic(monkeypatch, rates, script) > 0


def test_star_pass_spoke_dominance_fallback(monkeypatch):
    """1G spokes into a 10G hub: the spokes, not the hub, bottleneck first
    until enough flows share the hub, so both branches of the pass run."""
    rates = [units.gbps(10)] + [units.gbps(1)] * 6 + [units.gbps(10)] * 6
    script = [
        (0.001 * i, "transfer", (1 + i, 0, (1 + i) * 8 * units.MiB)) for i in range(12)
    ]
    script += [(0.004, "rates", (0, 0.5)), (0.02, "rates", (3, 2.0))]
    script.sort(key=lambda op: op[0])
    assert _assert_star_matches_generic(monkeypatch, rates, script) > 0


def test_star_pass_same_instant_wave_and_double_spoke(monkeypatch):
    """A same-instant wave into one port, then a spoke sending twice."""
    rates = [units.gbps(10)] * 9
    script = [(0.0, "transfer", (1 + i, 0, 4 * units.MiB)) for i in range(8)]
    script += [(0.001, "transfer", (1, 0, 4 * units.MiB))]  # spoke 1 twice
    script += [(0.002, "transfer", (2 + i, 0, 4 * units.MiB)) for i in range(3)]
    assert _assert_star_matches_generic(monkeypatch, rates, script) > 0


def test_completion_wave_fires_in_retire_order(monkeypatch):
    """Equal flows started together finish in one wave: their completion
    callbacks fire at one instant, in arrival (= retire) order."""
    rates = [units.gbps(10)] * 9
    script = [(0.0, "transfer", (1 + i, 0, 4 * units.MiB)) for i in range(8)]
    _states, completions, _stats, _end, _passes = _replay_exact(rates, script)
    assert [index for index, _at, _value in completions] == list(range(8))
    assert len({at for _index, at, _value in completions}) == 1
    _assert_star_matches_generic(monkeypatch, rates, script)
