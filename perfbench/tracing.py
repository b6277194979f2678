"""Spans and counts recorded from outside the program.

A ``Tracer`` wraps public functions of ``deltashell`` by rebinding their
names in the modules that call them, so the program itself is not
touched.  Each call records a span (name, start, end, parent) and the
counts its wrapper derives from the arguments or the result.  Spans
and counts stay in memory, tagged with the phase they fell in
(``setup`` or ``round``), and are written out once the run ends.

The layer metrics are the self time of each span name (its duration
minus the time its child spans cover), the call and point counts, and
ratios of these, per phase.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class _CountingLinalg:
    """Stands in for ``numpy.linalg`` in one module and counts its solves."""

    def __init__(self, linalg, tracer: "Tracer", counter: str) -> None:
        self._linalg = linalg
        self._tracer = tracer
        self._counter = counter

    def solve(self, *args, **kwargs):
        self._tracer.count(self._counter, 1)
        return self._linalg.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class _CountingNumpy:
    """Stands in for ``numpy`` in one module; only ``linalg`` differs."""

    def __init__(self, np, linalg) -> None:
        self._np = np
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(self._np, name)


def _dense_mb(result) -> dict:
    """MB of the dense operator matrices a call returned, from their shapes."""
    ops = result.values() if isinstance(result, dict) else [result]
    return {"shell_ops.dense_mb": sum(op.matrix.nbytes for op in ops) / 1e6}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []     # [name, start, end, parent index, phase]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[self.phase][name] += value

    def wrap(self, fn, name, counts=None):
        """fn wrapped in a span; ``name`` may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append([label, time.perf_counter(), None, parent,
                                 tracer.phase])
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            tracer.count(f"{label}.calls", 1)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    tracer.count(key, value)
            return result

        return traced

    def rebind(self, owner, attr: str, fn) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def install(self) -> None:
        """Rebind every traced name; ``uninstall`` puts the originals back."""
        import numpy as np

        from deltashell import (cli, coupling, dirac_algebra, geometry,
                                potential, shell_ops, sphere_spectral)

        def points(args, kwargs, result):
            return {"dirac_algebra.phi_a.points": len(result)}

        def roots(args, kwargs, result):
            return {"sphere_spectral.roots": len(result)}

        def nodes(args, kwargs, result):
            return {"geometry.build_mesh.nodes": len(result)}

        def dense(args, kwargs, result):
            return _dense_mb(result)

        # (span name, original, modules whose name is rebound, counts)
        targets = [
            ("dirac_algebra.phi_a", dirac_algebra.phi_a, [shell_ops], points),
            ("geometry.build_mesh", geometry.build_mesh, [geometry, cli], nodes),
            ("potential.factorize", potential.factorize, [potential, cli], None),
            ("coupling.build_kv", coupling.build_kv, [cli], None),
            ("coupling.lambda_electrostatic", coupling.lambda_electrostatic,
             [cli], None),
            ("coupling.lambda_neumann", coupling.lambda_neumann, [cli], None),
            ("sphere_spectral.klein_convergence_study",
             sphere_spectral.klein_convergence_study, [cli], None),
            ("sphere_spectral.find_gap_eigenvalues",
             sphere_spectral.find_gap_eigenvalues, [sphere_spectral, cli], roots),
            ("sphere_spectral.transfer_through_squeezed",
             sphere_spectral.transfer_through_squeezed, [sphere_spectral], None),
            ("sphere_spectral.inner_solution", sphere_spectral.inner_solution,
             [sphere_spectral], None),
            ("shell_ops.plemelj_check", shell_ops.plemelj_check, [cli], None),
            ("shell_ops.strong_convergence_experiment",
             shell_ops.strong_convergence_experiment, [cli], None),
            ("shell_ops.cauchy_sigma", shell_ops.cauchy_sigma, [shell_ops], dense),
            ("shell_ops.assemble_family", shell_ops.assemble_family,
             [shell_ops], dense),
        ]
        for fn_name in ("b_eps_apply", "b_limit_apply", "a_eps_apply",
                        "c_eps_apply", "cauchy_sigma_apply",
                        "shell_resolvent_apply"):
            targets.append((f"shell_ops.{fn_name}", getattr(shell_ops, fn_name),
                            [shell_ops], None))
        for name, fn, owners, counts in targets:
            traced = self.wrap(fn, name, counts)
            for owner in owners:
                self.rebind(owner, fn.__name__, traced)
        self.rebind(shell_ops.ShellOperator, "norm",
                    self.wrap(shell_ops.ShellOperator.norm, "shell_ops.norm"))
        self.rebind(cli, "main", self.wrap(
            cli.main, lambda argv=None: f"cli.{argv[0]}"))
        self.rebind(coupling, "np", _CountingNumpy(
            np, _CountingLinalg(np.linalg, self, "coupling.solves")))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self, phase: str) -> dict:
        """Summed self time per span name over the spans of one phase."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for index, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                out[name] += end - start - child[index]
        return dict(out)

    def dump(self, path: str) -> None:
        doc = {"spans": [{"name": n, "start": s, "end": e, "parent": p,
                          "phase": ph} for n, s, e, p, ph in self.spans],
               "counts": {ph: dict(c) for ph, c in self.counts.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
