"""Byte-for-byte comparison of CLI output against checked-in golden files.

Each file under ``tests/golden`` holds the stdout of one command.  A change
of coefficient or term representation must not change canonical printing,
so any difference here is a regression, not a test to update.  To write the
files afresh (only when the printed form is meant to change), run
``python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from symgb import verify
from symgb.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "sym-e": ["sym", "--kind", "e", "--k", "3", "--n", "6"],
    "sym-h": ["sym", "--kind", "h", "--k", "3", "--n", "4"],
    "sym-p": ["sym", "--kind", "p", "--k", "4", "--n", "5"],
    "gb-e1-e4": ["gb", "--gens", "e1,e2,e3,e4", "--n", "4"],
    "gb-rational": ["gb", "--n", "3", "--gens",
                    "3/2*x2*x3^2-x1*x3+3*x2,-3*x1*x2-1/6,-x3^3-3*x1+2/3"],
    "gb-non-monic": ["gb", "--n", "3", "--gens", "2*x1+3,3*x2^2-x1*x3,4*x3^2-6*x2"],
    "verify-gb-ek": ["verify", "gb-ek", "--n", "1..5", "--format", "records"],
    "verify-hkn": ["verify", "hkn", "--n", "1..6"],
    "involution-trace": ["involution", "--family", "ekn", "--k", "3", "--n", "5",
                         "--trace"],
    "hilbert": ["hilbert", "--n", "5"],
    # every verify target's records, so a change to any layer they reach is
    # checked byte for byte
    **{f"verify-records-{target}": ["verify", target, "--n", "1..8",
                                    "--format", "records"]
       for target in verify.TARGETS},
}


def _stdout(argv, capsys) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _stdout(COMMANDS[name], capsys).encode() == expected


if __name__ == "__main__":
    import contextlib
    import io

    for name, argv in COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, name
        (GOLDEN / f"{name}.txt").write_bytes(buf.getvalue().encode())
