"""Correctness checks on the records.csv row each benchmark trial writes.

Two checks, and every violation fails the trial:

* invariants that hold for any seed (``sound=1``, ``m2 >= m1``, ...);
* for the default seed, agreement with the outputs stored in
  ``reference.json``: integers exactly, floats to ``REL_TOL`` relative.
  The tolerance absorbs BLAS summation order (changing only the BLAS
  thread count moves ``measured_gap`` in its 14th digit) and nothing more.
"""
from __future__ import annotations

import csv
import math

REL_TOL = 1e-9


def read_row(csv_path):
    """The single data row of a one-trial records.csv, values typed.

    Empty cells become None; cells that read as integers become int
    (booleans are written as 0/1); everything else is float or, failing
    that, the raw string.
    """
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"expected 1 row in {csv_path}, found {len(rows)}")
    return {k: _typed(v) for k, v in rows[0].items()}


def _typed(cell):
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def outputs(row):
    """The replayable part of a row: every column except wall_ms."""
    return {k: v for k, v in row.items() if k != "wall_ms"}


def compare_reference(row, ref):
    """Violations of row against a stored reference row."""
    errors = []
    got = outputs(row)
    if set(got) != set(ref):
        errors.append(f"columns {sorted(got)} != reference {sorted(ref)}")
    for col, want in ref.items():
        have = got.get(col)
        if isinstance(want, float) and isinstance(have, (int, float)):
            if abs(have - want) > REL_TOL * max(abs(have), abs(want)):
                errors.append(f"{col}={have!r} differs from reference {want!r} beyond {REL_TOL:g}")
        elif have != want:
            errors.append(f"{col}={have!r} != reference {want!r}")
    return errors


def check_invariants(kind, params, row):
    """Violations of the seed-independent invariants of one trial row."""
    errors = []

    def need(cond, msg):
        if not cond:
            errors.append(msg)

    wall = row.get("wall_ms")
    need(isinstance(wall, (int, float)) and wall >= 0, f"wall_ms={wall!r} is not a time")
    if kind == "certify":
        gap, bound = row.get("measured_gap"), row.get("certified_bound")
        need(row.get("sound") == 1, f"sound={row.get('sound')!r}")
        need(row.get("n") == params["n"], f"n={row.get('n')!r} != {params['n']}")
        need(isinstance(row.get("fuzz_size"), int) and row["fuzz_size"] >= 0,
             f"fuzz_size={row.get('fuzz_size')!r}")
        # measured_gap = max |1 - lambda| over nontrivial eigenvalues, so
        # 0 <= lambda2 <= lambda_max <= 2 bounds it to [0, 1]
        need(isinstance(gap, (int, float)) and 0.0 <= gap <= 1.0, f"measured_gap={gap!r} outside [0, 1]")
        need(isinstance(bound, (int, float)) and isinstance(gap, (int, float)) and gap <= bound + 1e-7,
             f"measured_gap={gap!r} above certified_bound={bound!r}")
    elif kind == "cohomology-hit":
        n, d = params["n"], params["d"]
        m1, m2 = row.get("m1"), row.get("m2")
        ints = isinstance(m1, int) and isinstance(m2, int)
        need(ints, f"m1={m1!r}, m2={m2!r} not integers")
        if ints:
            need(1 <= m1 <= m2 <= math.comb(n, d + 1), f"need 1 <= m1={m1} <= m2={m2} <= C(n, d+1)")
            # rank C(n-1, d) needs at least that many columns
            need(m2 >= math.comb(n - 1, d), f"m2={m2} below C(n-1, d)={math.comb(n - 1, d)}")
            need(row.get("coincide") == int(m1 == m2), f"coincide={row.get('coincide')!r} for m1={m1}, m2={m2}")
    elif kind == "t-hit":
        total = math.comb(params["n"], 3)
        m1, m2t, found = row.get("m1"), row.get("m2t"), row.get("found")
        need(isinstance(m1, int) and 1 <= m1 <= total, f"m1={m1!r} outside [1, C(n, 3)]")
        need(found == int(m2t is not None), f"found={found!r} inconsistent with m2t={m2t!r}")
        need(m2t is None or (isinstance(m2t, int) and 0 <= m2t <= total), f"m2t={m2t!r} outside [0, C(n, 3)]")
    else:
        errors.append(f"no invariants for kind {kind!r}")
    return errors
