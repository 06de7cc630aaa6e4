"""Rule-based stateful property tests (hypothesis state machines)."""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.drivers import BondingDriver
from repro.hw import DescriptorRing, RingFullError
from repro.net import Packet
from repro.net.mac import MacAddress
from repro.sim import Simulator
from tests.drivers.test_bonding import FakeSlave


class RingMachine(RuleBasedStateMachine):
    """The descriptor ring under an arbitrary interleaving of driver
    posts, device consumption, and driver reaping."""

    def __init__(self):
        super().__init__()
        self.ring = DescriptorRing(16)
        self.posted = 0
        self.consumed = 0
        self.reaped = 0

    @rule()
    def post(self):
        if self.ring.full:
            try:
                self.ring.post(0x1000, 2048)
                raise AssertionError("post on full ring must raise")
            except RingFullError:
                pass
        else:
            self.ring.post(0x1000 * self.posted, 2048)
            self.posted += 1

    @rule()
    def consume(self):
        index = self.ring.consume()
        if index is not None:
            self.consumed += 1
            assert self.ring.done[index]

    @rule(limit=st.integers(min_value=0, max_value=20))
    def reap(self, limit):
        self.reaped += len(self.ring.reap(limit=limit))

    @rule()
    def reset(self):
        self.ring.reset()
        # After reset everything returns to software and the counts of
        # in-flight work become unreachable; resynchronize the model.
        self.posted = self.ring.posted
        self.consumed = self.ring.completed
        self.reaped = self.consumed

    @invariant()
    def occupancy_conserved(self):
        assert self.ring.free + self.ring.device_owned == self.ring.size - 1
        assert 0 <= self.ring.device_owned < self.ring.size

    @invariant()
    def pipeline_ordering(self):
        assert self.reaped <= self.consumed <= self.posted


class BondMachine(RuleBasedStateMachine):
    """The active-backup bond under arbitrary carrier flaps, releases
    and re-enslavements."""

    SLAVES = ["vf0", "eth0", "eth1"]

    def __init__(self):
        super().__init__()
        self.bond = BondingDriver(Simulator())
        self.devices = {}

    @rule(name=st.sampled_from(SLAVES))
    def enslave(self, name):
        if name in self.bond.slaves():
            return
        device = FakeSlave(name)
        self.devices[name] = device
        self.bond.enslave(device)

    @rule(name=st.sampled_from(SLAVES))
    def release(self, name):
        if name in self.bond.slaves():
            self.bond.release(name)
            del self.devices[name]

    @rule(name=st.sampled_from(SLAVES), up=st.booleans())
    def flap_carrier(self, name, up):
        if name in self.devices:
            self.devices[name].set_carrier(up)
            self.bond.carrier_changed(name)

    @rule()
    def transmit(self):
        src, dst = MacAddress(1), MacAddress(2)
        burst = [Packet(src=src, dst=dst)]
        sent = self.bond.transmit(burst)
        if self.bond.active_slave is None:
            assert sent == 0
        else:
            assert sent == 1

    @invariant()
    def active_slave_always_valid(self):
        active = self.bond.active_slave
        if active is not None:
            assert active in self.bond.slaves()
            assert self.devices[active].carrier

    @invariant()
    def never_idle_while_a_slave_has_carrier(self):
        if self.bond.active_slave is None:
            assert not any(d.carrier for d in self.devices.values())


TestRingMachine = RingMachine.TestCase
TestRingMachine.settings = settings(max_examples=60, stateful_step_count=50)
TestBondMachine = BondMachine.TestCase
TestBondMachine.settings = settings(max_examples=60, stateful_step_count=50)
