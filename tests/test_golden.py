"""Golden outputs: every line of ``tests/golden/outputs.txt`` is recomputed and must match bit for bit.

The file pins one seeded output of each layer and of each CLI subcommand
(see ``tests/golden/regen.py``, which rewrites it).  On a mismatch the
failure lists each moved line with its old and new value.  Another numpy
or CPU may move lines: that is what the test is for, so it is not skipped
by version.
"""

import importlib.util
from pathlib import Path

_REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_golden_outputs_are_unchanged():
    golden = regen.read()
    now = regen.lines()
    moved = [f"{name}\n  was {golden.get(name, '<absent>')}\n  now {value}"
             for name, value in now if golden.get(name) != value]
    moved += [f"{name}\n  was {golden[name]}\n  now <absent>" for name in golden.keys() - dict(now).keys()]
    header = [line for line in regen.OUTPUTS.read_text().splitlines() if line.startswith("#")]
    assert not moved, "\n".join(
        [f"{len(moved)} golden line(s) moved", "file made with:", *header, "running:", *regen.header(), *moved]
    )
