"""Raw-series LHS pinned bit for bit on the benchmark's verify requests.

``tests/data/lhs_pins.json`` holds CLI command lines (the 14 desk-verify and
2 tight-verify requests of the benchmark, copied as data, and the shift near
-1 of CI) with the verifier's LHS for each: the estimate as an exact
Fraction, the repr of its error bound and n_used.  A change to the summation
that moves any of them by one unit fails here.

After an intended change of the LHS, rewrite the data file with
``python tests/test_lhs_pins.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest

from zetaform import cli
from zetaform.engine import apply_reductions, closed_form, default_reduction_table
from zetaform.verify import verify_identity

DATA = Path(__file__).parent / "data" / "lhs_pins.json"


def lhs_pin(argv) -> dict:
    """The LHS that `cli.run` verifies argv with: estimate, bound and n_used."""
    request = cli.parse_request(list(argv))
    table = default_reduction_table() if request.display_mode == "reduced" else None
    cf = apply_reductions(closed_form(request.spec), table)
    report = verify_identity(request.spec, cf, tol=request.tolerance, N=request.verify_n)
    lhs = report.lhs_estimate
    return {"estimate": str(lhs.value), "bound": repr(lhs.abs_err_bound), "n_used": report.n_used}


PINS = json.loads(DATA.read_text())


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_lhs_is_bit_identical(pin):
    assert lhs_pin(pin["argv"]) == {key: pin[key] for key in ("estimate", "bound", "n_used")}


if __name__ == "__main__":
    pins = [json.dumps({"argv": pin["argv"], **lhs_pin(pin["argv"])}) for pin in PINS]
    DATA.write_text("[\n" + ",\n".join(pins) + "\n]\n")
