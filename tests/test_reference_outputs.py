"""The default commands reproduce the stored reference outputs.

The files in tests/data/ are rewritten by `tests/reference_outputs.py`. Rows
must match in engine, filter, interval and n; delta_a_eff and norm to 1e-10
relative. a_tilde is compared to 1e-10 of the row's delta_a_eff: at a
symmetric peak it is 0 up to a roundoff of about 1e-14 that depends on the
BLAS thread count.
"""

import csv

import pytest

from reference_outputs import COMMANDS, DATA, produce

TOLERANCE = 1e-10


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reference_outputs(name, tmp_path, capsys):
    rows = _rows(produce(name, tmp_path))
    capsys.readouterr()
    stored = _rows(DATA / f"{name}.csv")
    key = ("engine", "filter", "dt_over_T", "n")
    assert [[r[k] for k in key] for r in rows] == [[r[k] for k in key] for r in stored]
    for row, ref in zip(rows, stored):
        where = f"{name}: {[ref[k] for k in key]}"
        scale = float(ref["delta_a_eff"])
        for column in ("delta_a_eff", "norm"):
            assert float(row[column]) == pytest.approx(
                float(ref[column]), rel=TOLERANCE, abs=0.0), f"{where} {column}"
        assert abs(float(row["a_tilde"]) - float(ref["a_tilde"])) <= TOLERANCE * scale, \
            f"{where} a_tilde"
