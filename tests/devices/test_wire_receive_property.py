"""The port's wire receive path against a per-packet reference.

``Igb82576Port.wire_receive`` resolves each (dst, vlan) key to its
receiving functions once per switch generation and VF set, walks a
burst by header run and books each function's host-ward DMA as one
size-times-length product per run.  The reference below does it one
packet at a time, as the port did before: classify (once per key per
generation), resolve every target to its function, gather, then book
the sum of the packets' sizes.  Two ports built alike are driven
through the same random steps, one each way, and must end every step
in the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
        function.device_receive(packets)


class Bench:
    """One port and everything a step reads or drives."""

    def __init__(self, descriptors):
        self.sim = Simulator()
        self.iommu = Iommu()
        port = self.port = Igb82576Port(self.sim, iommu=self.iommu)
        RootComplex(self.iommu).attach(port.pf.pci, bus=1, device=0)
        self.interrupts = []
        port.interrupt_sink = lambda fn, msg: self.interrupts.append(
            (fn.name, msg.vector))
        self.classified = {}
        self.tables = {}
        self.descriptors = descriptors
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
            table = IoPageTable(domain_id=slot + 1)
            table.map(0x0, 0x1000000 * (slot + 1),
                      size=DEFAULT_RING_SIZE * 4096)
            self.iommu.attach(rid, table)
            self.tables[rid] = table
        ring = function.rx_ring
        for _ in range(self.descriptors[slot]):
            ring.post(ring.tail * 4096, RX_BUFFER_BYTES)
        for i in range(2):
            function.msix.configure(i, MsiMessage(0xFEE00000,
                                                  0x40 + 16 * slot + i))
            function.msix.unmask(i)

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
                 f.rx_ring.head, f.rx_ring.tail, f.rx_ring.completed,
                 bytes(f.rx_ring.done), [id(p) for p in f.rx_ring.packets])
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
    elif kind == "unmap":
        slot, page, pages = args
        functions = [port.pf, *port.vfs]
        function = functions[slot % len(functions)]
        bench.tables[function.pci.rid].unmap(page * 4096, pages * 4096)
    elif kind == "corrupt":
        port.rx_corrupt_budget = args[0]
    elif kind == "advance":
        bench.sim.run(until=bench.sim.now + args[0])


_header = st.tuples(st.integers(0, len(DESTINATIONS) - 1),
                    st.sampled_from(VLANS), st.sampled_from(SIZES))
_mac_index = st.integers(0, len(DESTINATIONS) - 1)
_function_index = st.sampled_from([SwitchTarget.PF, 0, 1, 2, 3])


def _steps(header_count):
    run = st.tuples(st.integers(0, header_count - 1), st.integers(1, 5),
                    st.sampled_from([None, None, *SIZES]))
    burst = st.tuples(st.just("burst"), st.lists(run, max_size=5))
    return st.lists(st.one_of(
        burst, burst, burst, burst,
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
        st.tuples(st.just("unmap"), st.integers(0, 4), st.integers(0, 12),
                  st.integers(1, 8)),
        st.tuples(st.just("corrupt"), st.integers(0, 6)),
        st.tuples(st.just("advance"), st.sampled_from([1e-5, 1e-3])),
    ), min_size=1, max_size=25)


@st.composite
def _scenarios(draw):
    headers = draw(st.lists(_header, min_size=1, max_size=6))
    # Descriptors posted per ring: the PF's, then VF 0-3's.
    descriptors = draw(st.lists(st.integers(0, 40), min_size=5,
                                max_size=5))
    return headers, descriptors, draw(_steps(len(headers)))


def run_both(headers, steps, descriptors=(5,) * 5):
    """Drive a port and the reference through ``steps``; returns the
    port's bench after checking the two agree after every step."""
    fast, reference = Bench(descriptors), Bench(descriptors)
    assert fast.state() == reference.state()
    for step in steps:
        if step[0] == "burst":
            step = ("burst", make_burst(step[1], headers))
        apply(fast, step, reference=False)
        apply(reference, step, reference=True)
        assert fast.state() == reference.state(), step
    return fast


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_wire_receive_matches_per_packet_reference(scenario):
    header_specs, descriptors, steps = scenario
    headers = [Packet(REMOTE, DESTINATIONS[dst], size, vlan=vlan)
               for dst, vlan, size in header_specs]
    run_both(headers, steps, descriptors)


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
