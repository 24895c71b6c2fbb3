"""Golden records: every column but wall_ms replays across commits.

tests/golden/make_golden.py stored one records.csv per config.  Each config
reruns here, in process, and its rows must match the stored ones: integers,
flags and strings exactly, floats to GOLDEN_REL_TOL relative (changing only
the BLAS thread count moves a Lanczos gap in its 14th digit).
"""
import csv

import pytest

from golden.make_golden import CONFIGS, config, golden_path
from spectop.harness import run

GOLDEN_REL_TOL = 1e-9


def _typed(cell):
    for cast in (int, float):
        try:
            return cast(cell)
        except ValueError:
            pass
    return cell


def read_rows(path):
    with open(path, newline="") as fh:
        return [{k: _typed(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def mismatches(kind, stored, fresh):
    """One message per cell of fresh that differs from stored, wall_ms aside."""
    if len(stored) != len(fresh):
        return [f"{kind}: {len(fresh)} rows, golden has {len(stored)}"]
    errors = []
    for want_row, have_row in zip(stored, fresh):
        if list(want_row) != list(have_row):
            errors.append(f"{kind}: columns {list(have_row)} != golden {list(want_row)}")
            continue
        for col, want in want_row.items():
            have = have_row[col]
            if col == "wall_ms":
                continue
            if isinstance(want, float) and isinstance(have, (int, float)):
                same = abs(have - want) <= GOLDEN_REL_TOL * max(abs(have), abs(want))
            else:
                same = type(have) is type(want) and have == want
            if not same:
                errors.append(f"{kind} trial {want_row['trial']} column {col}: {have!r} != golden {want!r}")
    return errors


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = {}
    for kind in CONFIGS:
        out[kind] = read_rows(run(config(kind, str(tmp_path_factory.mktemp(kind)))).csv_path)
    return out


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_rerun_matches_golden(kind, fresh):
    assert mismatches(kind, read_rows(golden_path(kind)), fresh[kind]) == []


def _edited_golden(kind, trial, col, edit, tmp_path):
    """The golden rows of kind with one stored cell rewritten by edit, read
    back from a copy of the file."""
    with open(golden_path(kind), newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(col)
    rows[trial + 1][j] = edit(rows[trial + 1][j])
    path = tmp_path / "records.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return read_rows(path)


def _bump_digit(cell, k):
    """cell with its k-th significant digit raised by one (9 wraps to 0)."""
    i = [i for i, ch in enumerate(cell) if ch.isdigit() and ch != "0"][0]
    i += k - 1 + ("." in cell[i:i + k])
    return cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]


def test_float_digit_beyond_tolerance_fails(fresh, tmp_path):
    # the 8th significant digit moves a float by at least 1e-8 relative
    edited = _edited_golden("certify", 1, "measured_gap", lambda c: _bump_digit(c, 8), tmp_path)
    assert mismatches("certify", edited, fresh["certify"]) == [
        f"certify trial 1 column measured_gap: {fresh['certify'][1]['measured_gap']!r} != golden "
        f"{edited[1]['measured_gap']!r}"
    ]


def test_float_digit_within_tolerance_passes(fresh, tmp_path):
    edited = _edited_golden("certify", 1, "measured_gap", lambda c: _bump_digit(c, 12), tmp_path)
    assert edited[1]["measured_gap"] != fresh["certify"][1]["measured_gap"]
    assert mismatches("certify", edited, fresh["certify"]) == []


def test_integer_edit_fails(fresh, tmp_path):
    edited = _edited_golden("t-hit", 0, "m2t", lambda c: str(int(c) + 1), tmp_path)
    assert mismatches("t-hit", edited, fresh["t-hit"]) == [
        f"t-hit trial 0 column m2t: {fresh['t-hit'][0]['m2t']!r} != golden {edited[0]['m2t']!r}"
    ]


def test_string_edit_fails(fresh, tmp_path):
    edited = _edited_golden("link-audit", 2, "worst_face", lambda c: c + "-0", tmp_path)
    assert mismatches("link-audit", edited, fresh["link-audit"]) == [
        f"link-audit trial 2 column worst_face: {fresh['link-audit'][2]['worst_face']!r} != golden "
        f"{edited[2]['worst_face']!r}"
    ]


def test_wall_ms_is_ignored(fresh, tmp_path):
    edited = _edited_golden("graph-gap", 2, "wall_ms", lambda c: "123456.789", tmp_path)
    assert mismatches("graph-gap", edited, fresh["graph-gap"]) == []
