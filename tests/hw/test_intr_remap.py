"""Unit tests for VT-d interrupt remapping."""

import pytest

from repro.hw.intr_remap import InterruptRemapFault, InterruptRemapper
from repro.hw.msi import MsiMessage


def message(vector):
    return MsiMessage(0xFEE00000, vector)


def test_programmed_vector_remaps():
    remapper = InterruptRemapper()
    remapper.program(source_rid=0x180, vector=0x40)
    entry = remapper.remap(0x180, message(0x40))
    assert entry.vector == 0x40
    assert remapper.remapped == 1


def test_unprogrammed_vector_faults():
    remapper = InterruptRemapper()
    remapper.program(0x180, 0x40)
    with pytest.raises(InterruptRemapFault):
        remapper.remap(0x180, message(0x41))
    assert remapper.faults == 1


def test_spoofing_other_functions_vector_faults():
    """The anti-spoof property: VF A cannot raise VF B's vector."""
    remapper = InterruptRemapper()
    remapper.program(0x180, 0x40)  # VF A
    remapper.program(0x182, 0x41)  # VF B
    with pytest.raises(InterruptRemapFault):
        remapper.remap(0x180, message(0x41))
    remapper.remap(0x182, message(0x41))  # B itself is fine


def test_revoke_single_entry():
    remapper = InterruptRemapper()
    remapper.program(0x180, 0x40)
    remapper.revoke(0x180, 0x40)
    with pytest.raises(InterruptRemapFault):
        remapper.remap(0x180, message(0x40))


def test_revoke_all_for_function():
    remapper = InterruptRemapper()
    remapper.program(0x180, 0x40)
    remapper.program(0x180, 0x41)
    remapper.program(0x182, 0x42)
    assert remapper.revoke_all_for(0x180) == 2
    assert remapper.entries_for(0x180) == 0
    assert remapper.entries_for(0x182) == 1
    assert remapper.entry_count == 1


def test_revoke_is_idempotent():
    remapper = InterruptRemapper()
    remapper.revoke(0x999, 0x40)  # nothing to remove, no error


def test_counts_stay_exact_through_reprogramming():
    """Programming a (RID, vector) twice keeps one entry; revoking the
    last entry of a RID leaves it none; re-programming brings it back."""
    remapper = InterruptRemapper()

    def counts():
        return (remapper.entries_for(0x180), remapper.entries_for(0x182),
                remapper.entry_count)

    remapper.program(0x180, 0x40)
    remapper.program(0x182, 0x42)
    assert counts() == (1, 1, 2)
    second = remapper.program(0x180, 0x40, destination=3)
    assert counts() == (1, 1, 2)
    assert remapper.lookup(0x180, 0x40) is second  # the latest wins
    remapper.program(0x180, 0x41)
    assert counts() == (2, 1, 3)
    remapper.revoke(0x180, 0x40)
    assert counts() == (1, 1, 2)
    assert remapper.lookup(0x180, 0x40) is None
    assert remapper.revoke_all_for(0x180) == 1
    assert counts() == (0, 1, 1)
    assert remapper.revoke_all_for(0x180) == 0
    assert counts() == (0, 1, 1)
    remapper.revoke(0x182, 0x42)
    assert counts() == (0, 0, 0)
    remapper.program(0x180, 0x40)
    assert counts() == (1, 0, 1)
    assert remapper.remap(0x180, message(0x40)).vector == 0x40
