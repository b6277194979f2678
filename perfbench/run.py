"""Benchmark of deltashell: one workload per run, checked and timed.

    python3 perfbench/run.py --workload radial|apply|dense --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from the
checkout's ``src``.  A run times the import of the program in itself
and in two fresh interpreters, sets up the workload's inputs three
times (``setup_s`` takes the medians of both), then repeats whole
rounds of its operations until ``--seconds`` have passed, at least
once.  ``wall_s``
is the sum over the operations of each one's median time across the
rounds.  Every round's outputs are checked against references computed
apart (``reference.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists, the end-to-end ones with ``--trace 0`` and
the per-layer ones with ``--trace 1``.

A traced run first times one untraced round, then wraps the program's
public functions (``tracing.py``) for the rounds that follow; the
difference is reported as ``trace.overhead_s``, and the spans are
written to ``perfbench/out/``.
"""

import os
import sys
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# one process on one core: a second BLAS thread made a dense round only
# about 8% faster
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

SETUP_REPEATS = 3
#: fresh interpreters that time the import, besides the run's own
IMPORT_REPEATS = 2
_IMPORT = ("import sys, time\n"
           "start = time.perf_counter()\n"
           "sys.path.insert(0, sys.argv[1])\n"
           "import numpy\n"
           "from deltashell import (cli, coupling, dirac_algebra, geometry,\n"
           "                        potential, shell_ops, sphere_spectral)\n"
           "print(time.perf_counter() - start)\n")


def _fresh_import_s() -> float:
    """Time to import numpy and every deltashell module in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT, SRC], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def _metric_specs(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[kind]}


def _run_round(ops: list) -> tuple:
    """Run the operations once; (outputs, time per op, names of ops that raised)."""
    outputs, times, raised = {}, {}, []
    for name, fn in ops:
        start = time.perf_counter()
        try:
            outputs[name] = fn()
        except Exception:
            traceback.print_exc()
            raised.append(name)
        times[name] = time.perf_counter() - start
    return outputs, times, raised


def _typical_round(rounds: list) -> float:
    """Sum over the operations of each one's median time across the rounds.

    From three rounds on, an operation that is slow in one round only
    (``ShellOperator.norm`` starts ``svds`` from a random vector) does
    not move the sum; with two it counts half.
    """
    return sum(statistics.median(r[name] for r in rounds) for name in rounds[0])


class Tally:
    """Operations attempted and failed, and the checks of the last round."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.checks: list = []
        self.worst_error = 0.0

    def add(self, inputs, ops: list, outputs: dict, raised: list) -> None:
        self.attempted += len(ops)
        if raised:
            self.failed += len(raised)
            self.correct = False
            return
        self.checks = self.workload.check(inputs, outputs)
        bad = {c.op for c in self.checks if not c.ok}
        self.failed += len(bad)
        if bad - {self.workload.known_fault}:
            self.correct = False
        errors = [c.value for c in self.checks if c.reference and c.op not in bad]
        self.worst_error = max([self.worst_error] + errors)


def _layer_metrics(tracer, rounds: int) -> dict:
    """Per-layer figures: the first set-up plus the median traced round."""
    def phase_figures(phase: str) -> dict:
        figs = {f"{k}.s": v for k, v in tracer.self_times(phase).items()}
        figs.update(tracer.counts.get(phase, {}))
        return figs

    per_round = [phase_figures(f"round{i}") for i in range(rounds)]
    setup = phase_figures("setup")
    names = set(setup).union(*per_round)
    out = {n: setup.get(n, 0.0) + statistics.median(r.get(n, 0.0) for r in per_round)
           for n in names}
    roots = out.get("sphere_spectral.roots", 0.0)
    out["sphere_spectral.det_evals_per_root"] = (
        out.get("sphere_spectral.inner_solution.calls", 0.0) / roots if roots else 0.0)
    phi_s = out.get("dirac_algebra.phi_a.s", 0.0)
    out["dirac_algebra.phi_a.mpoints_per_s"] = (
        out.get("dirac_algebra.phi_a.points", 0.0) / phi_s / 1e6 if phi_s else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deltashell", "__init__.py")):
        sys.stderr.write(f"no deltashell sources under {SRC}; run from the "
                         "root of a checkout\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    # every module is imported here, so its import time counts in setup_s
    from deltashell import (cli, coupling, dirac_algebra, geometry,  # noqa: F401
                            potential, shell_ops, sphere_spectral)
    import_s = time.perf_counter() - START
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    specs = _metric_specs("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        import_s = statistics.median(
            [import_s] + [_fresh_import_s() for _ in range(IMPORT_REPEATS)])
    start = time.perf_counter()
    np.linalg.solve(np.eye(4) + np.ones((4, 4)), np.ones(4))
    lapack_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    builds = []
    for i in range(SETUP_REPEATS):
        if tracer:
            tracer.phase = "setup" if i == 0 else "setup-repeat"
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        builds.append(time.perf_counter() - start)
    setup_s = import_s + lapack_s + statistics.median(builds)

    tally = Tally(workload)
    ops = workload.operations(inputs)
    untraced = None
    if tracer:
        tracer.uninstall()
        outputs, times, raised = _run_round(ops)
        untraced = sum(times.values())
        tally.add(inputs, ops, outputs, raised)
        del outputs
        tracer.install()
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        if tracer:
            tracer.phase = f"round{len(walls)}"
        outputs, times, raised = _run_round(ops)
        walls.append(times)
        if tracer:
            tracer.phase = "check"
        tally.add(inputs, ops, outputs, raised)
        del outputs

    if tracer:
        tracer.uninstall()
        figures = _layer_metrics(tracer, len(walls))
        figures.update(workload.layer_errors(tally.checks))
        figures["trace.overhead_s"] = _typical_round(walls) - untraced
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        figures = {
            "wall_s": _typical_round(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digits": -math.log10(tally.worst_error) if tally.worst_error else 0.0,
        }

    for c in tally.checks:
        mark = "ok  " if c.ok else ("KNOWN" if c.op == workload.known_fault
                                    else "FAIL")
        rel = ">=" if c.at_least else "<="
        print(f"{mark} {c.op}: {c.what} = {c.value:.3e} ({rel} {c.limit:.1e})")
    for name in walls[0]:
        print(f"time {name}: median {statistics.median(r[name] for r in walls):.3f} s")
    print(f"{args.workload}: {len(walls)} round(s), attempted {tally.attempted}, "
          f"failed {tally.failed}, correct {tally.correct}")
    metrics = {}
    for name, unit in specs.items():
        value = float(figures.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
