"""Acceptance gate: one test per criterion, one printed verdict line each.

The asymptotic claims are exercised at desk scale with pinned seeds.  Every
tolerance and calibrated threshold is a named constant here; the comment
beside each records whether it is a contract value (fixed by the check's
definition) or a calibration (chosen against margins measured on the pinned
seeds in August 2026).  Verdict lines are written to the real stdout so they
appear even under capture, one line per criterion.
"""

import math
import sys
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import conftest
from helpers import complete, complete_bipartite, path, two_star_gadget
from spectop.audit import audit, discrepancy_refute, find_path_witness, fuzz_set, parallel_norm
from spectop.complexes import FaceProcess, isolated_faces, sample_complex
from spectop.criteria import CERTIFIED, cohomology_hitting, garland_check, t_structure
from spectop.graphs import GraphParams, erdos_renyi, from_edges
from spectop.harness import ExperimentConfig, run_trial
from spectop.homology import (
    RankTracker,
    betti_stripped_identity,
    boundary_matrix,
    rank_exact,
    rank_mod_p,
)
from spectop.seeding import derive_seed
from spectop.spectral import full_spectrum, gap, normalized_laplacian
from spectop.tails import soundness_grid

# every sampled object below is pinned through this master; criterion k uses
# master seed MASTER + k so the suites stay independent of each other
MASTER = 20260814

# --- criterion 1: closed-form spectra (contract tolerances) -----------------
COMPLETE_NS = range(2, 51)
CYCLE_NS = range(3, 65)
CLOSED_FORM_TOL = 1e-9  # solver residuals at n <= 64 sit near 1e-14

# --- criterion 2: eigensolver contract (contract tolerances) ----------------
EIG_MATRICES = 200
EIG_MAX_DIM = 200
EIG_RESIDUAL_TOL = 1e-9  # per-pair ||Sv - lambda v|| relative to ||S||
EIG_TRACE_TOL = 1e-8     # |trace - sum of eigenvalues|, absolute

# --- criterion 3: certificate soundness (contract; regime is calibration) ---
SOUND_GRAPHS = 200
SOUND_N_RANGE = (100, 1001)      # sampled uniformly per graph
SOUND_COEFF_RANGE = (1.5, 3.0)   # p = coeff * log(n)/n, always >= 1.5
SOUND_SLACK = 1e-7               # float headroom on measured <= bound
AUDIT_M = 10.0
# calibration note: on the pinned seeds all 200 graphs receive a certificate,
# so the zero-violation check is exercised 200 times, never vacuously

# --- criterion 4: witness gadget bounds (contract, exact logic) -------------
GADGET_MS = (4, 16, 64, 256)
GADGET_LAMBDA_MAX_FLOOR = 1.5 - 1e-7

# --- criterion 5: gap * sqrt(d) scaling (calibrated caps) -------------------
SCALING_NS = (500, 1000, 2000, 4000)
SCALING_COEFF = 1.2
SCALING_TRIALS = 20
SCALING_MEDIAN_CAP = 4.0      # measured medians 1.84..1.90 on pinned seeds
SCALING_STABILITY_CAP = 2.0   # measured max/min ratio 1.03

# --- criterion 6: below-threshold regime (calibrated rates) -----------------
SPARSE_N = 5000
SPARSE_COEFF = 0.4
SPARSE_TRIALS = 20
SPARSE_GAP_FLOOR = 0.45   # measured gaps 0.92..0.96 on pinned seeds
SPARSE_GAP_RATE = 0.90    # measured 20/20
SPARSE_WITNESS_RATE = 0.80  # measured 20/20

# --- criterion 7: gap at the connectivity time (calibrated caps) ------------
TAU_NS = (1000, 4000)
TAU_TRIALS = 20
TAU_MEDIAN_CAP = 3.0      # measured medians 1.82 and 1.84 on pinned seeds
TAU_STABILITY_CAP = 2.0   # measured ratio 1.008

# --- criterion 8: Poisson window (calibrated distances) ---------------------
WINDOW_N = 40
WINDOW_SEEDS = 2000
WINDOW_TV_CAP = 0.05        # measured total-variation 0.018 on pinned seeds
WINDOW_IDENTITY_RATE = 0.95  # measured 1990/2000
POISSON_RATE = 0.5           # e^-c / d! at c=0, d=2

# --- criterion 9: hitting-time coincidence (calibrated rate) ----------------
HIT_N = 25
HIT_SEEDS = 200
HIT_COINCIDE_RATE = 0.85   # measured 187/200 on pinned seeds
HIT_EXACT_RECHECKS = 5     # exact-rank re-verification of M2 on these trials

# --- criterion 10: certification implies vanishing (contract + floor) -------
BATTERY_SIZE = 60
BATTERY_MAX_N = 12
MIN_CERTIFIED_CASES = 20   # measured 28/60 certified; floor keeps the
                           # implication non-vacuous if sampling drifts

# --- criterion 11: stripped Betti identity (calibrated regime) --------------
IDENTITY_COUNT = 100
IDENTITY_N_RANGE = (12, 21)
IDENTITY_COEFF_OFFSET = 1.0  # p = (d + offset) * log(n)/n keeps every draw
                             # above the vanishing regime of the stripped
                             # complex; measured 100/100 identities there

# --- criterion 12: property (T) structure rate (calibrated rate) ------------
T_N = 60
T_COEFF = 1.5
T_SEEDS = 30
T_CERT_RATE = 0.90
# calibration note: at this scale the vertex links have mean degree ~6 and
# their lambda_2 measures 0.0..0.26, far below the 1/2 the certificate
# needs, so the criterion fails as stated; the verdict line reports the
# measured rate (see the decisions ledger kept outside the package)

# --- criterion 14: oracle equivalences (contract tolerances) ----------------
RANK_MATRIX_CASES = 50     # boundary matrices, and again synthetic integer
RANK_SYNTH_CASES = 50      # columns streamed into the tracker
MC_SAMPLES = 10_000
MC_SLACK = 1e-6            # Monte Carlo max can only undershoot the sup


_CAP = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # verdict lines must reach the terminal even for passing criteria
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _verdict(num, label, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'} {label}: {detail}"
    conftest.VERDICT_LINES.append(line)
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_01_closed_form_spectra():
    worst = 0.0
    for n in COMPLETE_NS:
        got = gap(complete(n)).lambda_abs
        worst = max(worst, abs(got - 1.0 / (n - 1)))
    for n in CYCLE_NS:
        theory = np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
        got = full_spectrum(normalized_laplacian(cycle_graph(n))).eigenvalues
        worst = max(worst, float(np.abs(got - theory).max()))
    _verdict(1, "closed-form spectra", worst <= CLOSED_FORM_TOL,
             f"max deviation {worst:.2e} (tol {CLOSED_FORM_TOL:.0e})")


def test_02_eigensolver_residuals():
    rng = np.random.default_rng(MASTER + 2)
    worst_resid = worst_trace = 0.0
    for _ in range(EIG_MATRICES):
        k = int(rng.integers(2, EIG_MAX_DIM + 1))
        x = rng.normal(size=(k, k))
        s = (x + x.T) / 2.0
        spec = full_spectrum(s, tol=EIG_RESIDUAL_TOL)
        worst_resid = max(worst_resid, spec.residual_tol)
        worst_trace = max(worst_trace, abs(np.trace(s) - spec.eigenvalues.sum()))
    ok = worst_resid <= EIG_RESIDUAL_TOL and worst_trace <= EIG_TRACE_TOL
    _verdict(2, "eigensolver contract", ok,
             f"{EIG_MATRICES} matrices, max residual {worst_resid:.2e}, "
             f"max trace gap {worst_trace:.2e}")


def test_03_certificate_soundness():
    rng = np.random.default_rng(MASTER + 3)
    issued = violations = 0
    for i in range(SOUND_GRAPHS):
        n = int(rng.integers(*SOUND_N_RANGE))
        coeff = float(rng.uniform(*SOUND_COEFF_RANGE))
        p = coeff * math.log(n) / n
        g = erdos_renyi(GraphParams(n, p, derive_seed(MASTER + 3, i)))
        report = audit(g, (n - 1) * p, AUDIT_M)
        if report.certified_bound is None:
            continue
        issued += 1
        vals = full_spectrum(normalized_laplacian(g)).eigenvalues
        lam = float(np.abs(1.0 - vals[1:]).max())
        if lam > report.certified_bound + SOUND_SLACK:
            violations += 1
    ok = violations == 0 and issued > 0
    _verdict(3, "certificate soundness", ok,
             f"{issued}/{SOUND_GRAPHS} certificates issued, {violations} violations")


def test_04_witness_gadget_bounds():
    bad = []
    for m in GADGET_MS:
        g = two_star_gadget(m)
        assert find_path_witness(g, m) is not None
        r = gap(g)
        lam2_cap = 0.5 + 2.0 / math.sqrt(m) + 2.0 / m
        if r.lambda_max < GADGET_LAMBDA_MAX_FLOOR or r.lambda2 > lam2_cap:
            bad.append(m)
    _verdict(4, "witness gadget bounds", not bad,
             f"m in {GADGET_MS}: lambda_max >= 3/2 and lambda_2 within cap"
             + (f"; failures at m={bad}" if bad else ""))


def test_05_gap_scaling_sqrt_d():
    medians = {}
    for n in SCALING_NS:
        cfg = ExperimentConfig(kind="graph-gap", n=n, coeff=SCALING_COEFF,
                               master_seed=MASTER + 5)
        vals = [run_trial(cfg, i).values["gap_sqrt_d"] for i in range(SCALING_TRIALS)]
        medians[n] = float(np.median(vals))
    ratio = max(medians.values()) / min(medians.values())
    ok = max(medians.values()) <= SCALING_MEDIAN_CAP and ratio <= SCALING_STABILITY_CAP
    pretty = ", ".join(f"n={n}: {m:.2f}" for n, m in medians.items())
    _verdict(5, "gap*sqrt(d) scaling", ok, f"medians {pretty}; ratio {ratio:.3f}")


def test_06_below_threshold_gap_and_witness():
    cfg = ExperimentConfig(kind="below-threshold", n=SPARSE_N,
                           coeff=SPARSE_COEFF, master_seed=MASTER + 6)
    rows = [run_trial(cfg, i).values for i in range(SPARSE_TRIALS)]
    big = sum(r["gap"] >= SPARSE_GAP_FLOOR for r in rows)
    wit = sum(bool(r["witness_found"]) for r in rows)
    ok = (big >= SPARSE_GAP_RATE * SPARSE_TRIALS
          and wit >= SPARSE_WITNESS_RATE * SPARSE_TRIALS)
    _verdict(6, "below-threshold gap and witness", ok,
             f"gap >= {SPARSE_GAP_FLOOR} in {big}/{SPARSE_TRIALS}, "
             f"witness in {wit}/{SPARSE_TRIALS}")


def test_07_connectivity_time_gap_scaling():
    medians = {}
    for n in TAU_NS:
        cfg = ExperimentConfig(kind="connectivity-gap", n=n, master_seed=MASTER + 7)
        vals = [run_trial(cfg, i).values["gap_sqrt_log_n"] for i in range(TAU_TRIALS)]
        medians[n] = float(np.median(vals))
    ratio = max(medians.values()) / min(medians.values())
    ok = max(medians.values()) <= TAU_MEDIAN_CAP and ratio <= TAU_STABILITY_CAP
    pretty = ", ".join(f"n={n}: {m:.2f}" for n, m in medians.items())
    _verdict(7, "gap at the connectivity time", ok,
             f"medians {pretty}; ratio {ratio:.3f}")


def test_08_poisson_window_identity():
    cfg = ExperimentConfig(kind="poisson-betti", n=WINDOW_N, d=2, c=0.0,
                           master_seed=MASTER + 8)
    counts = Counter()
    identities = 0
    for i in range(WINDOW_SEEDS):
        v = run_trial(cfg, i).values
        counts[v["isolated"]] += 1
        identities += v["identity_holds"]
    tv = 0.0
    tail = 1.0
    for k in range(max(counts) + 1):
        pk = math.exp(-POISSON_RATE) * POISSON_RATE**k / math.factorial(k)
        tail -= pk
        tv += abs(counts.get(k, 0) / WINDOW_SEEDS - pk)
    tv = 0.5 * (tv + max(tail, 0.0))
    ok = tv <= WINDOW_TV_CAP and identities >= WINDOW_IDENTITY_RATE * WINDOW_SEEDS
    _verdict(8, "Poisson window and Betti identity", ok,
             f"tv {tv:.4f} (cap {WINDOW_TV_CAP}), "
             f"betti == isolated in {identities}/{WINDOW_SEEDS}")


def test_09_hitting_time_coincidence():
    cfg = ExperimentConfig(kind="cohomology-hit", n=HIT_N, d=2,
                           master_seed=MASTER + 9)
    agree = 0
    for i in range(HIT_SEEDS):
        v = run_trial(cfg, i).values
        agree += v["coincide"]
    target = math.comb(HIT_N - 1, 2)
    rechecked = 0
    for i in range(HIT_EXACT_RECHECKS):
        seed = derive_seed(MASTER + 9, i)
        proc = FaceProcess(HIT_N, 2, seed=seed)
        h = cohomology_hitting(proc, seed=seed)
        at = rank_exact(boundary_matrix(proc.prefix(h.M2)))
        before = rank_exact(boundary_matrix(proc.prefix(h.M2 - 1)))
        rechecked += at == target and before == target - 1
    ok = (agree >= HIT_COINCIDE_RATE * HIT_SEEDS
          and rechecked == HIT_EXACT_RECHECKS)
    _verdict(9, "hitting times coincide", ok,
             f"M1 == M2 in {agree}/{HIT_SEEDS}, "
             f"exact-rank recheck {rechecked}/{HIT_EXACT_RECHECKS}")


def test_10_garland_implies_vanishing():
    rng = np.random.default_rng(MASTER + 10)
    certified = vanished = 0
    for i in range(BATTERY_SIZE):
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(d + 3, BATTERY_MAX_N + 1))
        p = float(rng.uniform(0.3, 0.98))
        y = sample_complex(n, d, p, seed=derive_seed(MASTER + 10, i))
        if garland_check(y).certified:
            certified += 1
            _, b_stripped, _ = betti_stripped_identity(y)
            vanished += b_stripped == 0
    ok = certified >= MIN_CERTIFIED_CASES and vanished == certified
    _verdict(10, "certification implies vanishing", ok,
             f"{certified}/{BATTERY_SIZE} certified, "
             f"stripped betti zero in {vanished}/{certified}")


def test_11_stripped_betti_identity():
    rng = np.random.default_rng(MASTER + 11)
    exact = 0
    for i in range(IDENTITY_COUNT):
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(*IDENTITY_N_RANGE))
        p = min(1.0, (d + IDENTITY_COEFF_OFFSET) * math.log(n) / n)
        y = sample_complex(n, d, p, seed=derive_seed(MASTER + 11, i))
        b, b_stripped, iso = betti_stripped_identity(y)
        exact += b == b_stripped + iso
    _verdict(11, "stripped Betti identity", exact == IDENTITY_COUNT,
             f"exact in {exact}/{IDENTITY_COUNT} draws")


def test_12_property_t_structure_rate():
    p = T_COEFF * math.log(T_N) / T_N
    certified = 0
    link_lam2 = []
    for i in range(T_SEEDS):
        y = sample_complex(T_N, 2, p, seed=derive_seed(MASTER + 12, i))
        report = t_structure(y)
        if report.verdict == CERTIFIED:
            certified += report.free_rank == report.isolated_edges
        lam2 = report.zuk_on_stripped.min_link_lambda2
        if lam2 is not None:
            link_lam2.append(lam2)
    rate = certified / T_SEEDS
    detail = (f"certified {certified}/{T_SEEDS} (rate {rate:.2f}, "
              f"need {T_CERT_RATE}); min link lambda_2 in "
              f"[{min(link_lam2):.2f}, {max(link_lam2):.2f}], threshold 0.5")
    _verdict(12, "property (T) structure rate", rate >= T_CERT_RATE, detail)


def test_13_tail_bound_soundness():
    cells = soundness_grid()
    bad = [c for c in cells if not (c["lower_ok"] and c["upper_ok"])]
    margin = min(min(c["lower_margin"], c["upper_margin"]) for c in cells)
    _verdict(13, "tail-bound soundness", not bad,
             f"{len(cells)} grid cells, min margin {margin:.2e}")


def _clause_ratios(n, d, C, e, sa, sb):
    """Independent restatement of the three discrepancy clauses."""
    s = max(sa, sb)
    if s == 0:
        return 0.0, 0.0, False
    mu = sa * sb * d / n
    ra = e / (C * mu) if mu > 0 else (math.inf if e else 0.0)
    lhs = e * math.log(e / mu) if e > 0 and mu > 0 else (math.inf if e else 0.0)
    rhs = C * s * math.log(n / s)
    rb = lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)
    return ra, rb, s > d**0.25 / 100.0


def _enumerate_best_violation(g, d, C):
    n = g.n
    adj = g.adjacency()
    members = [np.flatnonzero([(m >> v) & 1 for v in range(n)])
               for m in range(1, 2**n)]
    best = None
    for a in members:
        row = adj[a].sum(axis=0)
        for b in members:
            e = int(row[b].sum())
            ra, rb, cv = _clause_ratios(n, d, C, e, len(a), len(b))
            if cv and ra > 1.0 and rb > 1.0:
                score = max(ra, 0.0) * max(rb, 0.0)
                if best is None or score > best:
                    best = score
    return best


def test_14_oracle_equivalences():
    # (a) discrepancy search vs brute-force enumeration at n <= 8
    cases = [
        (complete_bipartite(4, 4), 2.0, 1.0),
        (path(8), 1.0, 0.5),
        (complete(6), 5.0, 10.0),
        (erdos_renyi(GraphParams(8, 0.4, 123)), 2.8, 2.0),
        (erdos_renyi(GraphParams(7, 0.5, 45)), 3.0, 0.8),
    ]
    enum_ok = 0
    for g, d, c in cases:
        expected = _enumerate_best_violation(g, d, c)
        got = discrepancy_refute(g, d, c)
        if expected is None:
            enum_ok += got is None
            continue
        if got is None or got.violation_score != expected:
            continue
        adj = g.adjacency()
        e = int(adj[np.ix_(got.A, got.B)].sum())
        ra, rb, cv = _clause_ratios(g.n, d, c, e, len(got.A), len(got.B))
        if e == got.e and cv and ra > 1.0 and rb > 1.0:
            enum_ok += 1

    # (b) streaming mod-p rank vs exact rational rank
    rng = np.random.default_rng(MASTER + 14)
    rank_ok = 0
    for i in range(RANK_MATRIX_CASES):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 10))
        y = sample_complex(n, d, float(rng.uniform(0.2, 0.95)),
                           seed=derive_seed(MASTER + 14, i))
        bm = boundary_matrix(y)
        rank_ok += rank_mod_p(bm, seed=derive_seed(MASTER + 14, 1000 + i)) == rank_exact(bm)
    for i in range(RANK_SYNTH_CASES):
        rows = int(rng.integers(3, 13))
        cols = int(rng.integers(3, 15))
        mat = rng.integers(-3, 4, size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        tracker = RankTracker(rows, seed=derive_seed(MASTER + 14, 2000 + i))
        for j in range(cols):
            nz = np.flatnonzero(mat[:, j])
            if nz.size:
                tracker.add_column(nz, mat[nz, j])
        rank_ok += tracker.rank == rank_exact(mat)

    # (c) closed-form constrained sup vs Monte Carlo maximization
    mc_ok = 0
    mc_graphs = [
        erdos_renyi(GraphParams(60, 0.08, derive_seed(MASTER + 14, 3000))),
        erdos_renyi(GraphParams(60, 0.15, derive_seed(MASTER + 14, 3001))),
        complete(12),
    ]
    for g in mc_graphs:
        d_avg = 2.0 * g.edge_count / g.n
        fz = fuzz_set(g, d_avg, M=1.5)
        sup = parallel_norm(g, fz)
        deg = g.degrees.astype(np.float64)
        tsqrt = np.sqrt(deg)
        q = np.zeros(g.n)
        live = (deg > 0) & ~np.isin(np.arange(g.n), fz.members)
        q[live] = 1.0 / tsqrt[live]
        u = tsqrt / np.linalg.norm(tsqrt)
        z = rng.normal(size=(MC_SAMPLES, g.n))
        z -= np.outer(z @ u, u)
        vals = np.abs(z @ q) / np.linalg.norm(z, axis=1)
        mc_ok += sup >= float(vals.max()) - MC_SLACK

    ok = (enum_ok == len(cases)
          and rank_ok == RANK_MATRIX_CASES + RANK_SYNTH_CASES
          and mc_ok == len(mc_graphs))
    _verdict(14, "oracle equivalences", ok,
             f"enumeration {enum_ok}/{len(cases)}, "
             f"rank {rank_ok}/{RANK_MATRIX_CASES + RANK_SYNTH_CASES}, "
             f"monte-carlo domination {mc_ok}/{len(mc_graphs)}")
