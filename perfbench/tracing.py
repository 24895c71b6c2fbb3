"""Span tracer for the benchmark's traced run.

The tracer wraps public spectop functions at the name their caller looks
up (``spectop.harness.giant_gap``, ``spectop.criteria.link``,
``RankTracker.add_column``, ...), so the program itself is untouched.
Each span records its name, start, end, parent span and trial id; spans
stay in memory until ``write`` dumps them.  A span's self time is its
duration minus the durations of its direct children, and a layer's self
time is the sum over the spans of that layer.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graphs", "spectral", "audit", "complexes", "homology", "criteria", "harness")


class MissingTarget(RuntimeError):
    """A traced name is no longer defined where its caller looks it up."""


class Tracer:
    """In-memory spans plus exact work counts, installed by patching.

    Use as ``with tracer.installed(): ...`` around traced trials and
    ``with tracer.trial(i): ...`` around each call into ``harness.run``.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, trial]
        self._stack = []
        self._trial = -1
        self.counts = defaultdict(int)
        self.dim_max = 0
        self._drawn = {}
        self._stats_calls = 0
        self._prefix_max = 0

    # --- span recording -------------------------------------------------
    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._trial])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def trial(self, trial):
        """Root span of one trial; counts that need the whole trial close here."""
        self._trial = trial
        self._drawn = {}
        self._stats_calls = 0
        self._prefix_max = 0
        sid = self._open("harness.run")
        try:
            yield
        finally:
            self._close(sid)
            self.counts["complexes.faces_used"] += max(self._stats_calls, self._prefix_max)
            self.counts["trace.trials"] += 1

    def _wrap(self, fn, name, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_call is not None:
                on_call(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # --- counters at the span boundaries --------------------------------
    def _on_eigensolve(self, args, out):
        dim = int(args[0].shape[0])
        self.counts["spectral.eigensolve_calls"] += 1
        self.counts["spectral.eigensolve_flops_computed"] += dim ** 3
        self.dim_max = max(self.dim_max, dim)

    def _on_laplacian(self, args, out):
        self.counts["spectral.laplacian_bytes_computed"] += 8 * int(out.shape[0]) ** 2

    def _count(self, key):
        def on_call(args, out):
            self.counts[key] += 1
        return on_call

    def _on_first(self, args, out):
        proc, m = args[0], int(args[1])
        before = self._drawn.get(id(proc), 0)
        if m > before:
            self.counts["complexes.faces_drawn"] += m - before
            self._drawn[id(proc)] = m

    def _on_prefix(self, args, out):
        self.counts["complexes.prefix_calls"] += 1
        self._prefix_max = max(self._prefix_max, int(args[1]))

    def _on_add_face(self, args, out):
        self._stats_calls += 1

    def _on_add_column(self, args, out):
        self.counts["homology.columns_fed"] += 1
        if out:
            self.counts["homology.columns_rank_grew"] += 1

    # --- installation ---------------------------------------------------
    def _patch_table(self):
        import numpy.linalg

        import spectop.audit as audit
        import spectop.complexes as complexes
        import spectop.criteria as criteria
        import spectop.graphs as graphs
        import spectop.harness as harness
        import spectop.homology as homology
        import spectop.spectral as spectral

        return [
            (harness, "run_trial", "harness.run_trial", None),
            (harness, "erdos_renyi", "graphs.erdos_renyi", None),
            (graphs, "from_edges", "graphs.from_edges", self._count("graphs.from_edges_calls")),
            (complexes, "from_edges", "graphs.from_edges", self._count("graphs.from_edges_calls")),
            (spectral, "components", "graphs.components", None),
            (spectral, "induced_subgraph", "graphs.induced_subgraph", None),
            (criteria, "induced_subgraph", "graphs.induced_subgraph", None),
            (harness, "giant_gap", "spectral.giant_gap", None),
            (spectral, "gap", "spectral.gap", None),
            (numpy.linalg, "eigh", "spectral.eigensolve", self._on_eigensolve),
            (numpy.linalg, "eigvalsh", "spectral.eigensolve", self._on_eigensolve),
            (spectral, "normalized_laplacian", "spectral.laplacian", self._on_laplacian),
            (criteria, "normalized_laplacian", "spectral.laplacian", self._on_laplacian),
            (criteria, "full_spectrum", "spectral.full_spectrum", None),
            (audit, "adjacency_seminorm", "spectral.seminorm", None),
            (harness, "audit", "audit.audit", None),
            (criteria, "link", "complexes.link", self._count("complexes.link_calls")),
            (criteria, "isolated_faces", "complexes.isolated_faces", None),
            (complexes.FaceProcess, "first", "complexes.process_draw", self._on_first),
            (complexes.FaceProcess, "prefix", "complexes.prefix", self._on_prefix),
            (complexes.ComplexStats, "add_face", "complexes.stats", self._on_add_face),
            (homology.RankTracker, "add_column", "homology.rank", self._on_add_column),
            (harness, "cohomology_hitting", "criteria.cohomology_hitting", None),
            (harness, "t_hitting", "criteria.t_hitting", None),
            (criteria, "t_structure", "criteria.t_structure", self._count("criteria.t_structure_calls")),
            (criteria, "zuk_check", "criteria.zuk_check", None),
            (criteria, "link_lambda2", "criteria.link_lambda2", self._count("criteria.link_lambda2_calls")),
        ]

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block.

        A name the program no longer defines raises MissingTarget, so a
        renamed function cannot make its span read zero.
        """
        table = self._patch_table()
        missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in table if attr not in vars(owner)]
        if missing:
            raise MissingTarget(f"traced names not defined by the program: {', '.join(missing)}")
        patches = []
        try:
            for owner, attr, name, on_call in table:
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, on_call))
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # --- aggregation ----------------------------------------------------
    def self_times(self):
        """(self seconds by span name, total seconds of the root spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        root = 0.0
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[sid]
            if parent < 0:
                root += end - start
        return self_s, root

    def write(self, path):
        """One JSON list per span: [id, parent, trial, name, start, end]."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, trial, name, start, end]) + "\n")
