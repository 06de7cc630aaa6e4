"""The 82576 register map (the subset the paper's drivers touch).

Binds datasheet registers to device behaviour, so the drivers program
the NIC the way the real igb/igbvf do — through MMIO writes:

* **CTRL.RST** (offset 0x0000, bit 26) — global device reset: every
  function's rings drop what they held.
* **STATUS.LU** (0x0008, bit 1) — link up, read dynamically.
* **RCTL.RXEN** (0x0100, bit 1) — receive enable for the PF.
* **RAL/RAH[0..15]** (0x5400 + 8i / 0x5404 + 8i) — the receive-address
  table.  RAH carries the MAC's high 16 bits, a pool-select field
  (which function owns the address — how MAC-based L2 switching is
  programmed on this part) and the Address-Valid bit.
* **EITR[n]** (0x1680 + 4n) — per-vector interrupt throttle, interval
  in microseconds (the model's granularity).

Each VF's BAR exposes the VF-relative subset: VTCTRL.RST and
VTEITR[0..2].
"""

from __future__ import annotations

from repro.hw.registers import RegisterFile
from repro.net.mac import MacAddress

# PF register offsets (82576 datasheet).
REG_CTRL = 0x0000
REG_STATUS = 0x0008
REG_RCTL = 0x0100
REG_EITR_BASE = 0x1680
REG_RAL_BASE = 0x5400
RECEIVE_ADDRESS_ENTRIES = 16
EITR_VECTORS = 25

CTRL_RST = 1 << 26
STATUS_LU = 1 << 1
RCTL_RXEN = 1 << 1
RAH_AV = 1 << 31
RAH_POOL_SHIFT = 18
RAH_POOL_MASK = 0x7F

# VF (VT) register offsets within the VF BAR.
REG_VTCTRL = 0x0000
REG_VTEITR_BASE = 0x1680
VTEITR_VECTORS = 3

#: EITR interval granularity in this model: 1 microsecond.
EITR_USEC = 1e-6


def mac_from_ral_rah(ral: int, rah: int) -> MacAddress:
    """Assemble the 48-bit address from its register halves.

    The 82576 stores the MAC little-endian across RAL/RAH: RAL byte 0
    is the first octet on the wire.
    """
    raw = (ral & 0xFFFFFFFF) | ((rah & 0xFFFF) << 32)
    octets = [(raw >> (8 * i)) & 0xFF for i in range(6)]
    value = 0
    for octet in octets:
        value = (value << 8) | octet
    return MacAddress(value)


def ral_rah_for_mac(mac: MacAddress, pool: int, valid: bool = True) -> "tuple[int, int]":
    """The register pair that programs ``mac`` into a pool."""
    octets = [(mac.value >> (8 * (5 - i))) & 0xFF for i in range(6)]
    ral = (octets[0] | (octets[1] << 8) | (octets[2] << 16)
           | (octets[3] << 24))
    rah = octets[4] | (octets[5] << 8)
    rah |= (pool & RAH_POOL_MASK) << RAH_POOL_SHIFT
    if valid:
        rah |= RAH_AV
    return ral, rah


def build_pf_registers(port, ra_entries: int = RECEIVE_ADDRESS_ENTRIES) -> RegisterFile:
    """The PF BAR0 register file, with behaviour hooks into ``port``.

    ``ra_entries`` sizes the receive-address table (16 on the 82576,
    128 on the 82599; the model keeps one layout for both families).
    """
    from repro.devices.l2switch import SwitchTarget  # local: avoid cycle

    regs = RegisterFile(f"{port.name}.pf.bar0")

    def on_ctrl_write(old: int, new: int) -> None:
        if new & CTRL_RST:
            # Global device reset: all functions lose their rings.
            port.pf.rx_ring.reset()
            for vf in port.vfs:
                vf.rx_ring.reset()
            # RST self-clears.
            regs.poke("CTRL", new & ~CTRL_RST)

    regs.define("CTRL", REG_CTRL, on_write=on_ctrl_write)
    regs.define("STATUS", REG_STATUS, read_only=True,
                on_read=lambda: STATUS_LU if port.link_up else 0)
    regs.define("RCTL", REG_RCTL)

    def make_eitr_hook(index: int):
        def hook(old: int, new: int) -> None:
            if index == 0:
                interval = (new & 0xFFFF) * EITR_USEC
                port.pf.throttle.set_interval(interval)
        return hook

    for i in range(EITR_VECTORS):
        regs.define(f"EITR{i}", REG_EITR_BASE + 4 * i,
                    on_write=make_eitr_hook(i))

    def make_rah_hook(index: int):
        def hook(old: int, new: int) -> None:
            ral = regs.peek(f"RAL{index}")
            if old & RAH_AV:
                # Entry is being replaced/cleared: unprogram the old
                # address (drivers write RAL first, then RAH).
                port.switch.unprogram(mac_from_ral_rah(ral, old))
            if new & RAH_AV:
                mac = mac_from_ral_rah(ral, new)
                pool = (new >> RAH_POOL_SHIFT) & RAH_POOL_MASK
                target = SwitchTarget.PF if pool == 0 else pool - 1
                port.switch.program(mac, target)
        return hook

    for i in range(ra_entries):
        regs.define(f"RAL{i}", REG_RAL_BASE + 8 * i)
        regs.define(f"RAH{i}", REG_RAL_BASE + 4 + 8 * i,
                    on_write=make_rah_hook(i))
    return regs


def build_vf_registers(vf) -> RegisterFile:
    """One VF's BAR register file."""
    regs = RegisterFile(f"{vf.name}.bar0")

    def on_vtctrl_write(old: int, new: int) -> None:
        if new & CTRL_RST:
            vf.reset()
            regs.poke("VTCTRL", new & ~CTRL_RST)

    regs.define("VTCTRL", REG_VTCTRL, on_write=on_vtctrl_write)

    def make_vteitr_hook(index: int):
        def hook(old: int, new: int) -> None:
            if index == 0:
                interval = (new & 0xFFFF) * EITR_USEC
                # §4.3 enforcement: the PF may impose an interrupt-
                # throttling floor; guest requests below it are clamped.
                interval = max(interval, vf.itr_floor_interval)
                listener = vf.fluid_listener
                if listener is not None:
                    # Before the write lands: the open collapsed window
                    # must replay under the outgoing interval, the one
                    # it ran with in the exact engine.
                    listener()
                vf.throttle.set_interval(interval)
        return hook

    for i in range(VTEITR_VECTORS):
        regs.define(f"VTEITR{i}", REG_VTEITR_BASE + 4 * i,
                    on_write=make_vteitr_hook(i))
    return regs
