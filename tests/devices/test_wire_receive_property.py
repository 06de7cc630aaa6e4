"""The port's wire receive path against a per-packet reference.

``Igb82576Port.wire_receive`` resolves each (dst, vlan) key to its
receiving functions once per switch generation and VF set, takes a
one-header burst whole and walks a mixed one by header run, booking
each function's host-ward DMA as one size-times-length product.
``_NetFunction.device_receive`` writes the ring in slices and reads
the IOMMU verdicts the function keeps per slot, rebuilt only when the
RID's page table, that table's mappings or the ring's buffer addresses
changed.  The reference below does it one packet at a time, as the
port and the device did before: classify (once per key per
generation), resolve every target to its function, gather, book the
sum of the packets' sizes, then translate each descriptor's buffer
through the live page table.  Two ports built alike are driven through
the same random steps, one each way, and must end every step in the
same state.  The steps remap, unmap, detach and re-attach page tables,
re-post and re-program ring buffers, and reap and re-arm rings that
start near their wrap, so a kept verdict that misses a change fails.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.devices import Igb82576Port
from repro.devices.igb82576 import DEFAULT_RING_SIZE, RX_BUFFER_BYTES
from repro.devices.l2switch import SwitchTarget
from repro.hw import Iommu, IoPageTable, MsiMessage
from repro.hw.pcie import RootComplex
from repro.net import Packet
from repro.net.mac import BROADCAST, MacAddress
from repro.sim import Simulator

REMOTE = MacAddress.parse("02:00:00:00:99:99")
PF_MAC = MacAddress.parse("02:00:00:00:00:01")
#: VF MACs by index; index 3 is beyond the VFs the port starts with.
VF_MACS = [MacAddress(0x020000000010 + i) for i in range(4)]
UNKNOWN = MacAddress.parse("02:00:00:00:00:ff")
GROUPS = [MacAddress.parse("01:00:5e:00:00:01"),
          MacAddress.parse("01:00:5e:00:00:02")]
DESTINATIONS = [PF_MAC, *VF_MACS, UNKNOWN, *GROUPS, BROADCAST]
VLANS = [0, 5]
SIZES = [64, 1500]
#: Switch targets a step may program: the PF, VFs 0-4 (some absent)
#: and the uplink.
TARGETS = [SwitchTarget.PF, 0, 1, 2, 3, 4, SwitchTarget.UPLINK]


def reference_wire_receive(port, burst, classified):
    """The receive path one packet at a time.  ``classified`` holds the
    switch's targets per (dst, vlan) key for one generation."""
    port.wire_rx_packets += len(burst)
    if classified.get("generation") != port.switch.generation:
        classified.clear()
        classified["generation"] = port.switch.generation
    gathered = {}
    for packet in burst:
        key = (packet.dst, packet.vlan)
        if key not in classified:
            classified[key] = port.switch.classify(packet)
        for target in classified[key]:
            index = target.function_index
            if index == SwitchTarget.PF:
                function = port.pf
            elif 0 <= index < len(port.vfs):
                function = port.vfs[index]
            else:
                continue  # the uplink, or no such VF
            gathered.setdefault(function, []).append(packet)
    for function, packets in gathered.items():
        port.datapath.transfer(sum(p.size_bytes for p in packets))
        reference_device_receive(function, packets)


def reference_device_receive(function, burst):
    """The device's receive path one descriptor at a time: each slot's
    buffer is translated through the page table the RID's context
    points at when the packet arrives."""
    offered = len(burst)
    if not function.enabled:
        function.account_rx(offered, 0, 0, no_desc=offered)
        return
    if not burst:
        return
    port = function.port
    corrupt = 0
    if port.rx_corrupt_budget > 0:
        corrupt = min(port.rx_corrupt_budget, offered)
        port.rx_corrupt_budget -= corrupt
        port.rx_corrupted += corrupt
        burst = burst[corrupt:]
    ring = function.rx_ring
    iommu = port.iommu
    table = iommu.context_for(function.pci.rid) if iommu else None
    accepted = rx_bytes = no_desc = faults = 0
    for packet in burst:
        if ring.head == ring.tail:
            no_desc += 1
            continue
        if iommu is not None:
            entry = None if table is None else table.lookup(
                ring.buffer_addr[ring.head])
            if entry is None or not entry[1]:
                faults += 1
                continue
        ring.done[ring.head] = 1
        ring.packets[ring.head] = packet
        ring.head = (ring.head + 1) % ring.size
        accepted += 1
        rx_bytes += packet.size_bytes
    function.account_rx(offered, accepted, rx_bytes, no_desc, faults,
                        corrupt)
    if accepted:
        function.throttle.request()


def owned_verdicts(function, verdicts):
    """``verdicts``, one per slot, for the descriptors the device owns,
    in ring order from head."""
    ring = function.rx_ring
    return [verdicts[(ring.head + i) % ring.size]
            for i in range(ring.device_owned)]


def assert_verdicts_current(bench):
    """The verdicts each function keeps, over the descriptors its
    device owns, equal a per-slot walk of the page table its RID's
    context points at now.  Asking after every step keeps verdicts
    built, so a change that fails to invalidate them shows at once."""
    iommu = bench.port.iommu
    if iommu is None:
        return
    for function in [bench.port.pf, *bench.port.vfs]:
        kept = function.rx_verdicts()
        table = iommu.context_for(function.pci.rid)
        if table is None:
            assert kept is None, function.name
            continue
        walked = []
        for addr in function.rx_ring.buffer_addr:
            entry = table.lookup(addr)
            walked.append(1 if entry is not None and entry[1] else 0)
        assert (owned_verdicts(function, kept)
                == owned_verdicts(function, walked)), function.name


#: Pages the primary table maps writable, from guest page 0: one per
#: ring slot, so slot ``i`` posted at ``i * 4096`` translates.
MAPPED_PAGES = DEFAULT_RING_SIZE


class Bench:
    """One port and everything a step reads or drives.

    Each function's RID has two page tables: the primary, attached at
    set-up, which maps every slot's page writable, and an alternate
    mapping the same pages read-only.  Both are built with one ``map``
    call, so they start at the same generation."""

    def __init__(self, descriptors, starts=(0,) * 5, iommu=True):
        self.sim = Simulator()
        self.iommu = Iommu()
        port = self.port = Igb82576Port(
            self.sim, iommu=self.iommu if iommu else None)
        RootComplex(self.iommu).attach(port.pf.pci, bus=1, device=0)
        self.interrupts = []
        port.interrupt_sink = lambda fn, msg: self.interrupts.append(
            (fn.name, msg.vector))
        self.classified = {}
        self.tables = {}
        self.descriptors = descriptors
        self.starts = starts
        port.pf.mac = PF_MAC
        port.switch.program(PF_MAC, SwitchTarget.PF)
        self._set_up(port.pf, 0)
        self.enable_vfs(3, [True, True, False])
        for i in range(3):
            port.switch.program(VF_MACS[i], i)

    def enable_vfs(self, count, enabled):
        """Enable ``count`` VFs, set up as a driver would."""
        for i, vf in enumerate(self.port.enable_vfs(count)):
            vf.mac = VF_MACS[i]
            vf.enabled = enabled[i]
            self._set_up(vf, i + 1)

    def _set_up(self, function, slot):
        rid = function.pci.rid
        if rid not in self.tables:
            primary = IoPageTable(domain_id=slot + 1)
            alternate = IoPageTable(domain_id=slot + 1)
            for table, writable in ((primary, True), (alternate, False)):
                table.map(0x0, 0x1000000 * (slot + 1),
                          size=MAPPED_PAGES * 4096, writable=writable)
            self.iommu.attach(rid, primary)
            self.tables[rid] = (primary, alternate)
        ring = function.rx_ring
        # A ring that has already turned over ``start`` slots.
        ring.head = ring.tail = ring._clean = self.starts[slot]
        for _ in range(self.descriptors[slot]):
            ring.post(ring.tail * 4096, RX_BUFFER_BYTES)
        for i in range(2):
            function.msix.configure(i, MsiMessage(0xFEE00000,
                                                  0x40 + 16 * slot + i))
            function.msix.unmask(i)

    def function(self, slot):
        functions = [self.port.pf, *self.port.vfs]
        return functions[slot % len(functions)]

    def state(self):
        port = self.port
        datapath = port.datapath
        return {
            "wire_rx_packets": port.wire_rx_packets,
            "unknown_unicast": port.switch.unknown_unicast,
            "rx_corrupted": port.rx_corrupted,
            "rx_corrupt_budget": port.rx_corrupt_budget,
            "dma": (datapath.transferred_bytes.value,
                    datapath.transfers.value, datapath._busy_until),
            "iommu": (self.iommu.translations, self.iommu.faults),
            "interrupts": list(self.interrupts),
            "functions": [
                (f.name, f.enabled, f.rx_offered, f.rx_packets, f.rx_bytes,
                 f.rx_no_desc_drops, f.rx_dma_faults, f.rx_corrupt_drops,
                 f.rx_ring.head, f.rx_ring.tail, f.rx_ring._clean,
                 f.rx_ring.completed, bytes(f.rx_ring.done),
                 [id(p) for p in f.rx_ring.packets])
                for f in [port.pf, *port.vfs]],
        }


def make_burst(runs, headers):
    """Runs of one header referenced ``length`` times or, with a
    ``fresh_size``, of ``length`` distinct packets of that size to the
    header's (dst, vlan)."""
    burst = []
    for header, length, fresh_size in runs:
        packet = headers[header]
        burst += ([packet] * length if fresh_size is None
                  else [Packet(packet.src, packet.dst, fresh_size,
                               vlan=packet.vlan) for _ in range(length)])
    return burst


def apply(bench, step, reference):
    """Apply one step; a burst step carries its packets, shared by
    both benches so their ring slots hold the same objects."""
    kind, *args = step
    port = bench.port
    switch = port.switch
    if kind == "burst":
        burst = args[0]
        if reference:
            reference_wire_receive(port, burst, bench.classified)
        else:
            port.wire_receive(burst)
    elif kind == "program":
        mac, target, vlan = args
        switch.program(DESTINATIONS[mac], target, vlan)
    elif kind == "unprogram":
        mac, vlan = args
        switch.unprogram(DESTINATIONS[mac], vlan)
    elif kind == "subscribe":
        target, group = args
        switch.subscribe_multicast(target, GROUPS[group])
    elif kind == "unsubscribe":
        target, group = args
        switch.unsubscribe_multicast(target, GROUPS[group])
    elif kind == "disable_vfs":
        port.disable_vfs()
    elif kind == "enable_vfs":
        count, enabled = args
        if not port.vfs:
            bench.enable_vfs(count, enabled)
    elif kind in ("map", "unmap"):
        # Pages counted from the function's ring head, so a change
        # lands where the next bursts go.
        slot, table, offset, pages, *writable = args
        function = bench.function(slot)
        table = bench.tables[function.pci.rid][table]
        page = (function.rx_ring.head + offset) % MAPPED_PAGES
        if kind == "map":
            table.map(page * 4096, 0x7000000 + page * 4096, pages * 4096,
                      writable=writable[0])
        else:
            table.unmap(page * 4096, pages * 4096)
    elif kind == "attach":
        slot, table = args
        rid = bench.function(slot).pci.rid
        if table is None:
            bench.iommu.detach(rid)
        else:
            bench.iommu.attach(rid, bench.tables[rid][table])
    elif kind == "post":
        slot, page, count = args
        ring = bench.function(slot).rx_ring
        for i in range(min(count, ring.free)):
            ring.post((page + i) * 4096, RX_BUFFER_BYTES)
    elif kind == "post_until_full":
        slot, page = args
        bench.function(slot).rx_ring.post_until_full(
            page * 4096, 4096, RX_BUFFER_BYTES)
    elif kind == "program_buffers":
        slot, page = args
        bench.function(slot).rx_ring.program_buffers(
            page * 4096, 4096, RX_BUFFER_BYTES)
    elif kind == "recycle":
        # The driver's steady state: reap what landed, re-arm the
        # slots with their programming kept.
        slot, limit = args
        ring = bench.function(slot).rx_ring
        ring.reap(limit)
        ring.rearm_until_full()
    elif kind == "corrupt":
        port.rx_corrupt_budget = args[0]
    elif kind == "advance":
        bench.sim.run(until=bench.sim.now + args[0])


#: Headers lean towards the PF and VFs 0-2 on VLAN 0, which the bench
#: programs, so bursts often reach a ring.
_header = st.tuples(st.one_of(st.integers(0, 3),
                              st.integers(0, len(DESTINATIONS) - 1)),
                    st.sampled_from([0, *VLANS]), st.sampled_from(SIZES))
_mac_index = st.integers(0, len(DESTINATIONS) - 1)
_function_index = st.sampled_from([SwitchTarget.PF, 0, 1, 2, 3])
#: A step's function (the PF, then the VFs, modulo those enabled), one
#: of its two page tables, and pages from its ring head on.
_slot = st.integers(0, 4)
_table = st.integers(0, 1)
_offset = st.integers(0, 3)
_pages = st.integers(1, 8)
#: Buffer base pages: in the mapped range, reaching past its end, and
#: wholly outside it.
_base_page = st.sampled_from([0, 8, MAPPED_PAGES - 8, 2 * MAPPED_PAGES])


def _steps(header_count):
    run = st.tuples(st.integers(0, header_count - 1), st.integers(1, 5),
                    st.sampled_from([None, None, *SIZES]))
    # Six distinct burst strategies weight bursts six to one against
    # each other step: ``one_of`` drops a repeated strategy object.
    bursts = [st.tuples(st.just("burst"), st.lists(run, max_size=5))
              for _ in range(6)]
    return st.lists(st.one_of(
        *bursts,
        st.tuples(st.just("program"), _mac_index, st.sampled_from(TARGETS),
                  st.sampled_from(VLANS)),
        st.tuples(st.just("unprogram"), _mac_index, st.sampled_from(VLANS)),
        st.tuples(st.just("subscribe"), _function_index,
                  st.integers(0, len(GROUPS) - 1)),
        st.tuples(st.just("unsubscribe"), _function_index,
                  st.integers(0, len(GROUPS) - 1)),
        st.tuples(st.just("disable_vfs")),
        st.integers(1, 4).flatmap(lambda count: st.tuples(
            st.just("enable_vfs"), st.just(count),
            st.lists(st.booleans(), min_size=count, max_size=count))),
        st.tuples(st.just("map"), _slot, _table, _offset, _pages,
                  st.booleans()),
        st.tuples(st.just("unmap"), _slot, _table, _offset, _pages),
        st.tuples(st.just("attach"), _slot, st.sampled_from([0, 1, None])),
        st.tuples(st.just("post"), _slot, _base_page, st.integers(1, 8)),
        st.tuples(st.just("post_until_full"), _slot, _base_page),
        st.tuples(st.just("program_buffers"), _slot, _base_page),
        st.tuples(st.just("recycle"), _slot, st.integers(1, 40)),
        st.tuples(st.just("corrupt"), st.integers(0, 6)),
        st.tuples(st.just("advance"), st.sampled_from([1e-5, 1e-3])),
    ), min_size=6, max_size=25)


@st.composite
def _scenarios(draw):
    headers = draw(st.lists(_header, min_size=1, max_size=6))
    # Descriptors posted per ring: the PF's, then VF 0-3's, from a
    # first slot at the start of the ring or a few slots before its
    # wrap.
    descriptors = draw(st.lists(st.sampled_from([0, 2, 8, 40, 300]),
                                min_size=5, max_size=5))
    starts = draw(st.lists(
        st.sampled_from([0, DEFAULT_RING_SIZE - 3, DEFAULT_RING_SIZE - 20]),
        min_size=5, max_size=5))
    bench = {"descriptors": descriptors, "starts": starts,
             "iommu": draw(st.sampled_from([True, True, True, False]))}
    return headers, bench, draw(_steps(len(headers)))


def run_both(headers, steps, descriptors=(5,) * 5, **bench):
    """Drive a port and the reference through ``steps``; returns the
    port's bench after checking the two agree after every step."""
    fast = Bench(descriptors, **bench)
    reference = Bench(descriptors, **bench)
    assert fast.state() == reference.state()
    assert_verdicts_current(fast)
    for step in steps:
        if step[0] == "burst":
            step = ("burst", make_burst(step[1], headers))
        apply(fast, step, reference=False)
        apply(reference, step, reference=True)
        assert fast.state() == reference.state(), step
        assert_verdicts_current(fast)
    return fast


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_wire_receive_matches_per_packet_reference(scenario):
    header_specs, bench, steps = scenario
    headers = [Packet(REMOTE, DESTINATIONS[dst], size, vlan=vlan)
               for dst, vlan, size in header_specs]
    run_both(headers, steps, **bench)


def test_vf_set_change_resolves_receivers_again():
    """Receivers cached before a VF disable or enable are not used
    after it: the switch keeps its generation across both."""
    to_vf0 = [Packet(REMOTE, VF_MACS[0], 1500)]
    burst = ("burst", [(0, 3, None)])
    enable = ("enable_vfs", 2, [True, True])
    fast = run_both(to_vf0, [burst, ("disable_vfs",), burst, enable, burst])
    assert fast.port.vfs[0].rx_packets == 3


def test_vf_set_change_does_not_classify_again():
    """``classify`` runs once per key per switch generation, so an
    unknown unicast counts once across a VF disable and enable."""
    unknown = [Packet(REMOTE, UNKNOWN, 64)]
    burst = ("burst", [(0, 2, None)])
    fast = run_both(unknown, [burst, ("disable_vfs",), burst,
                               ("enable_vfs", 1, [True]), burst])
    assert fast.port.switch.unknown_unicast == 1


#: A step's function slot for VF 0 (slot 0 is the PF).
VF0 = 1
#: Pages no table maps.
UNMAPPED = 2 * MAPPED_PAGES


@pytest.mark.parametrize("change, accepted, faults", [
    (None, 4, 0),
    (("map", VF0, 0, 0, 4, False), 2, 4),
    (("unmap", VF0, 0, 0, 4), 2, 4),
    (("attach", VF0, 1), 2, 4),
    (("attach", VF0, None), 2, 4),
    (("post", VF0, UNMAPPED, 4), 4, 2),
    (("post_until_full", VF0, UNMAPPED), 4, 2),
    (("program_buffers", VF0, UNMAPPED), 2, 4),
], ids=["none", "map_read_only", "unmap", "attach_other_table", "detach",
        "post", "post_until_full", "program_buffers"])
def test_kept_verdicts_see_every_change(change, accepted, faults):
    """A burst builds VF 0's verdicts over its four posted slots and
    takes two; then one change, then a burst of four.  A change to the
    page table (a read-only remap, an unmap, another table at the same
    generation, no table) faults from the head slot on; new buffer
    addresses fault where they were written."""
    two, four = ("burst", [(0, 2, None)]), ("burst", [(0, 4, None)])
    steps = [two, four] if change is None else [two, change, four]
    fast = run_both([Packet(REMOTE, VF_MACS[0], 1500)], steps,
                    descriptors=(5, 4, 5, 5, 5))
    vf = fast.port.vfs[0]
    assert (vf.rx_packets, vf.rx_dma_faults) == (accepted, faults)


def test_a_burst_wraps_the_ring_and_stops_at_a_fault_past_it():
    """VF 0's six descriptors start three slots before the wrap; slot 1
    (past the wrap) is unmapped, so a burst of six takes four and the
    rest fault on slot 1."""
    starts = (0, DEFAULT_RING_SIZE - 3, 0, 0, 0)
    steps = [("unmap", VF0, 0, 4, 1), ("burst", [(0, 6, None)])]
    fast = run_both([Packet(REMOTE, VF_MACS[0], 64)], steps,
                    descriptors=(5, 6, 5, 5, 5), starts=starts)
    vf = fast.port.vfs[0]
    assert (vf.rx_packets, vf.rx_dma_faults) == (4, 2)
    assert vf.rx_ring.head == 1
