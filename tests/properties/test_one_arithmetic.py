"""One arithmetic: the batched accounting entry points on the RX path.

The exact path calls each layer's entry point once per event; the fluid
datapath calls the same entry point once per settle with a window's
totals.  For integral costs (the fluid ``nonintegral_costs`` gate's
condition) one call with ``n`` must leave exactly the state ``n`` calls
with 1 leave: ledger cells (the one book of VM exits), core accounts,
the vLAPIC's fractional carry, NAPI and VF counters, DMA bookings and the
app's latency sums and bins.

``NetserverApp.deliver`` groups a burst into runs of one shared
header; :func:`_reference_deliver` keeps the per-packet loop it
replaced as the reference it must match bit for bit.  Likewise one
``GrantTable.copy_burst`` must leave a grant table as granting, copying
and revoking each packet in turn does.
"""

import copy
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.devices.igb82576 import Igb82576Port
from repro.drivers.guest_app import NetserverApp
from repro.hw.iommu import Iommu
from repro.hw.pcie.datapath import PcieDataPath
from repro.net.mac import MacAddress
from repro.net.packet import (IP_HEADER_BYTES, Packet, Protocol,
                              TCP_HEADER_BYTES, UDP_HEADER_BYTES)
from repro.sim.engine import Simulator
from repro.vmm.domain import DomainKind
from repro.vmm.grant_table import GrantError, GrantTable
from repro.vmm.hypervisor import Xen

cycles = st.integers(min_value=1, max_value=60_000).map(float)
counts = st.integers(min_value=1, max_value=40)


@st.composite
def integral_costs(draw):
    emulate = draw(st.integers(min_value=2, max_value=20_000))
    return replace(
        CostModel(),
        external_interrupt_exit_cycles=draw(cycles),
        event_channel_notify_cycles=draw(cycles),
        other_apic_access_cycles=draw(cycles),
        other_apic_accesses_per_interrupt=draw(
            st.floats(min_value=0.0, max_value=3.0)),
        eoi_emulate_cycles=float(emulate),
        eoi_accelerated_cycles=float(draw(
            st.integers(min_value=1, max_value=emulate - 1))),
        eoi_instruction_check_cycles=draw(cycles),
        guest_cycles_per_interrupt=draw(cycles),
        guest_cycles_per_packet=draw(cycles),
        pvm_syscall_surcharge_per_packet=draw(cycles),
    )


def _xen(costs, kind, opts):
    xen = Xen(Simulator(), costs, opts)
    return xen, xen.create_guest("vm0", kind)


def _books(xen):
    """Every accumulator an exit or guest charge can touch."""
    return (
        xen.ledger.snapshot(),
        [sorted(core._accounts.items()) for core in xen.machine.cores],
        sorted((d.name, d.cycles_consumed) for d in xen.domains.values()),
    )


opts_choices = st.sampled_from([OptimizationConfig.all(),
                                OptimizationConfig.none()])


@given(integral_costs(), st.sampled_from([DomainKind.HVM, DomainKind.PVM]),
       opts_choices, counts, st.integers(min_value=0, max_value=60))
@settings(max_examples=60, deadline=None)
def test_exit_charges_batch_to_the_per_exit_books(costs, kind, opts, n,
                                                  other):
    batched, guest = _xen(costs, kind, opts)
    batched.account_interrupts(guest, n)
    per_event, guest_1 = _xen(costs, kind, opts)
    for _ in range(n):
        per_event.account_interrupts(guest_1)
    if kind is DomainKind.HVM:
        batched.vlapic(guest).account(other, n)
        vlapic = per_event.vlapic(guest_1)
        for _ in range(other):
            vlapic.account(other=1)
        for _ in range(n):
            vlapic.account(eois=1)
    assert _books(batched) == _books(per_event)


@given(integral_costs(), opts_choices, counts)
@settings(max_examples=60, deadline=None)
def test_vlapic_carry_then_one_charge_matches_inject_and_eoi(costs, opts,
                                                             n):
    # Exact: n full interrupt cycles through the device model.  Fluid:
    # the carry per interrupt, the charges once.
    exact, guest = _xen(costs, DomainKind.HVM, opts)
    vlapic = exact.vlapic(guest)
    for _ in range(n):
        vlapic.inject(0x40)
        vlapic.eoi_write()
    fluid, guest_f = _xen(costs, DomainKind.HVM, opts)
    replay = fluid.vlapic(guest_f)
    other = sum(replay.other_accesses() for _ in range(n))
    replay.account(other, n)
    assert replay._carry == vlapic._carry
    assert _books(fluid) == _books(exact)
    assert (guest.lapic._irr, guest.lapic._isr) == (0, 0)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=200),
                          st.integers(min_value=0, max_value=300)),
                min_size=1, max_size=20),
       integral_costs(), st.sampled_from(["hvm", "pvm"]))
@settings(max_examples=30, deadline=None)
def test_isr_and_napi_books_batch(batches, costs, kind):
    beds = [Testbed(TestbedConfig(ports=1, costs=costs)) for _ in range(2)]
    kinds = {"hvm": DomainKind.HVM, "pvm": DomainKind.PVM}
    drivers = [bed.add_sriov_guest(kinds[kind], name="vm0").driver
               for bed in beds]
    drained = [b for b, _ in batches]
    taken = [min(b, a) for b, a in batches]
    budget = drivers[0].napi.budget
    full = sum(b // budget for b in drained)
    drivers[0].account_isr(drained, sum(taken))
    drivers[0].napi.account(len(drained) + full, sum(drained), full)
    for b, a in zip(drained, taken):
        drivers[1].account_isr((b,), a)
        # poll_all: the full polls, then the final short one.
        for _ in range(b // budget):
            drivers[1].napi.account(1, budget, 1)
        drivers[1].napi.account(1, b % budget, 0)

    def books(driver):
        napi = driver.napi
        return (driver.interrupts_handled, driver.rx_meter.count,
                driver.domain.cycles_consumed,
                (napi.polls, napi.packets, napi.exhausted_polls),
                [sorted(core._accounts.items())
                 for core in driver.domain.machine.cores])

    assert books(drivers[0]) == books(drivers[1])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=1)),
                max_size=25))
@settings(max_examples=60, deadline=None)
def test_receive_statistics_batch(bursts):
    ports = [Igb82576Port(Simulator(), iommu=Iommu()) for _ in range(2)]
    totals = [sum(column) for column in zip(*bursts)] or [0, 0, 0, 0]
    accepted_total = sum(min(o, a) for o, a, _f, _c in bursts)
    ports[0].pf.account_rx(totals[0], accepted_total, accepted_total * 64,
                           totals[0] - accepted_total, totals[2], totals[3])
    for offered, accepted, faults, corrupt in bursts:
        accepted = min(offered, accepted)
        ports[1].pf.account_rx(offered, accepted, accepted * 64,
                               offered - accepted, faults, corrupt)

    def books(port):
        pf = port.pf
        return (pf.rx_offered, pf.rx_packets, pf.rx_bytes,
                pf.rx_no_desc_drops, pf.rx_dma_faults, pf.rx_corrupt_drops,
                pf.rx_ring.completed, port.iommu.translations,
                port.iommu.faults)

    assert books(ports[0]) == books(ports[1])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.integers(min_value=0, max_value=9000)),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_dma_bookings_batch(bookings):
    times = [step * 1e-6 for step, _size in bookings]
    times = [sum(times[:i + 1]) for i in range(len(times))]
    sizes = [size for _step, size in bookings]
    pipes = [PcieDataPath(Simulator()) for _ in range(2)]
    finishes = []
    assert pipes[0].book(times, sizes, finishes=finishes) == len(times)
    for at, size in zip(times, sizes):
        pipes[1].book((at,), (size,))
    assert finishes[-1] == pipes[0]._busy_until
    assert ((pipes[0]._busy_until, pipes[0].transferred_bytes.value,
             pipes[0].transfers.value)
            == (pipes[1]._busy_until, pipes[1].transferred_bytes.value,
                pipes[1].transfers.value))


# ----------------------------------------------------------------------
# the app: payload and latency sums
# ----------------------------------------------------------------------
def _reference_deliver(app, burst, now, capped=True):
    """The per-packet delivery loop ``NetserverApp.deliver`` replaced."""
    accepted = (min(len(burst), app.batch_capacity) if capped
                else len(burst))
    dropped = len(burst) - accepted
    app.rx_packets += accepted
    latency = app.latency
    payload = 0
    for packet in burst[:accepted]:
        header = (UDP_HEADER_BYTES if packet.protocol is Protocol.UDP
                  else TCP_HEADER_BYTES)
        bytes_ = packet.size_bytes - IP_HEADER_BYTES - header
        if bytes_ > 0:
            payload += bytes_
        value = now - packet.created_at
        index = int(math.floor(value / latency.bin_width))
        latency._bins[index] = latency._bins.get(index, 0) + 1
        latency._count += 1
        latency._sum += value
        latency._sum_sq += value * value
    app.rx_bytes += payload
    app.dropped_packets += dropped
    return accepted, dropped


def _app_books(app):
    latency = app.latency
    return (app.rx_packets, app.rx_bytes, app.dropped_packets,
            latency._count, latency._sum, latency._sum_sq,
            list(latency._bins.items()))


_SRC = MacAddress(0x0200_0000_0001)
_DST = MacAddress(0x0200_0000_0002)

runs_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=20),       # packets
              st.integers(min_value=0, max_value=4000),     # send step, us
              st.sampled_from([40, 64, 512, 1500]),         # size
              st.sampled_from([Protocol.UDP, Protocol.TCP]),
              st.booleans()),                               # one header
    min_size=1, max_size=12)


def _burst(runs, base=1.0):
    """A run is ``n`` references to one header, as a netperf burst is,
    or ``n`` distinct headers with equal fields; a zero step puts equal
    fields in adjacent runs."""
    packets = []
    t = base
    for n, step, size, protocol, shared in runs:
        t -= step * 1e-6
        if shared:
            packets += [Packet(_SRC, _DST, size, protocol=protocol,
                               created_at=t)] * n
        else:
            packets += [Packet(_SRC, _DST, size, protocol=protocol,
                               created_at=t) for _ in range(n)]
    return packets


@given(st.lists(runs_strategy, min_size=1, max_size=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_run_grouped_deliver_matches_the_per_packet_loop(bursts, capped):
    grouped, reference = NetserverApp(), NetserverApp()
    for k, runs in enumerate(bursts):
        now = 1.0 + k * 1e-3
        burst = _burst(runs, base=now)
        assert (grouped.deliver(burst, now, capped=capped)
                == _reference_deliver(reference, burst, now, capped))
    assert _app_books(grouped) == _app_books(reference)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=5e-3),
                          st.integers(min_value=1, max_value=40),
                          st.sampled_from([40, 1500]),
                          st.sampled_from([Protocol.UDP, Protocol.TCP])),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_one_account_call_matches_per_packet_calls(runs):
    batched, per_packet = NetserverApp(), NetserverApp()
    payloads = [size - IP_HEADER_BYTES
                - (UDP_HEADER_BYTES if protocol is Protocol.UDP
                   else TCP_HEADER_BYTES)
                for _value, _n, size, protocol in runs]
    assert batched.account([value for value, _n, _s, _p in runs],
                           [n for _v, n, _s, _p in runs], payloads, 3) \
        == sum(n for _v, n, _s, _p in runs)
    for (value, n, _size, _protocol), payload in zip(runs, payloads):
        for _ in range(n):
            per_packet.account([value], [1], [payload], 0)
    per_packet.account([], [], [], 3)
    assert _app_books(batched) == _app_books(per_packet)


@given(st.lists(st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                                   st.integers(min_value=1, max_value=200)),
                         min_size=1, max_size=8),
                min_size=1, max_size=10),
       st.sampled_from([64, 1500]),
       st.sampled_from([Protocol.UDP, Protocol.TCP]))
@settings(max_examples=60, deadline=None)
def test_fluid_window_delivers_like_one_exact_isr_per_fire(fires, size,
                                                           protocol):
    # One settle's virtual interrupts, each draining runs of (packets,
    # send step), against the exact ISR's per-interrupt deliver of the
    # same packets: the app caps each interrupt on its own.
    fluid, exact = NetserverApp(), NetserverApp()
    fire_times, drained, ends = [], [], []
    run_counts, run_times = [], []
    now = 1.0
    for segments in fires:
        now += 1e-3
        burst = []
        t = now
        for n, step in segments:
            t -= step * 1e-6
            run_counts.append(n)
            run_times.append(t)
            burst.extend(Packet(_SRC, _DST, size, protocol=protocol,
                                created_at=t) for _ in range(n))
        fire_times.append(now)
        drained.append(len(burst))
        ends.append(len(run_counts))
        _reference_deliver(exact, burst, now)
    accepted = fluid.deliver_fluid((fire_times, drained, ends), run_counts,
                                   run_times, size, protocol)
    assert accepted == exact.rx_packets
    assert _app_books(fluid) == _app_books(exact)


# ----------------------------------------------------------------------
# grant copies: one batch per netback burst
# ----------------------------------------------------------------------
_GRANTEE = 0
copy_sizes = st.lists(st.integers(min_value=0, max_value=9000), max_size=12)
live_index = st.integers(min_value=0, max_value=7)
grant_ops = st.one_of(
    st.tuples(st.just("access"), st.integers(min_value=0, max_value=2**20),
              st.booleans()),
    st.tuples(st.just("map"), live_index),
    st.tuples(st.just("unmap"), live_index),
    st.tuples(st.just("copy"), live_index,
              st.integers(min_value=0, max_value=9000), st.booleans()),
    st.tuples(st.just("end"), live_index),
    st.tuples(st.just("burst"), copy_sizes),
    st.tuples(st.just("bad burst"), copy_sizes,
              st.integers(min_value=-9000, max_value=-1),
              st.integers(min_value=0, max_value=12)),
)


def _grant_books(table):
    return (table._next_ref, table.copies, table.copied_bytes,
            table.active_grants(), table._grants)


def _on_both(tables, call):
    """``call`` on each table; both must return or refuse alike."""
    outcomes = []
    for table in tables:
        try:
            outcomes.append(("ok", call(table)))
        except GrantError as exc:
            outcomes.append(("refused", str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@given(st.lists(grant_ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_copy_burst_matches_the_per_op_loop(script):
    batched, reference = tables = GrantTable(1), GrantTable(1)
    live = []  # refs granted and not yet revoked, equal in both tables
    for op, *args in script:
        if op == "access":
            frame, readonly = args
            _, ref = _on_both(tables, lambda t: t.grant_access(
                _GRANTEE, frame, readonly))
            live.append(ref)
        elif op == "burst":
            sizes, = args
            batched.copy_burst(_GRANTEE, sizes)
            for size in sizes:
                ref = reference.grant_access(_GRANTEE, frame=size)
                reference.grant_copy(ref, _GRANTEE, size)
                reference.end_access(ref)
        elif op == "bad burst":
            sizes, negative, at = args
            before = copy.deepcopy(vars(batched))
            with pytest.raises(ValueError):
                batched.copy_burst(_GRANTEE,
                                   sizes[:at] + [negative] + sizes[at:])
            assert vars(batched) == before
        elif live:
            ref = live[args[0] % len(live)]
            if op == "map":
                _on_both(tables, lambda t: t.map_grant(ref, _GRANTEE))
            elif op == "unmap":
                _on_both(tables, lambda t: t.unmap_grant(ref))
            elif op == "copy":
                size, write = args[1:]
                _on_both(tables, lambda t: t.grant_copy(
                    ref, _GRANTEE, size, write=write))
            elif _on_both(tables, lambda t: t.end_access(ref))[0] == "ok":
                live.remove(ref)
        assert _grant_books(batched) == _grant_books(reference)
