"""Benchmark of the mallows package: one workload per run.

    python3 perfbench/run.py --workload pool --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced reps of the same inputs
and reports the per-layer metrics (see README.md in this directory).  Both
check the outputs and that one seed gives byte-identical outputs twice.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A copy of the result with its
provenance and details goes to ``.perfbench/`` in the checkout.  Exits 2,
printing no result, when the checkout has no ``src/mallows``.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("pool", "deep", "cli-sample", "laws")

#: (name, unit) of the end-to-end metrics, emitted with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("ops_per_ref", "1/ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

#: (name, unit) of the per-layer metrics, emitted with --trace 1
PER_LAYER = (
    ("streams.uniforms_per_row", "1/row"),
    ("streams.vector_draw_s", "s/rep"),
    ("streams.scalar_draws", "count/rep"),
    ("streams.scalar_draw_s", "s/rep"),
    ("samplers.interlacing_batch_self_s", "s/rep"),
    ("samplers.inversion_batch_self_s", "s/rep"),
    ("samplers.fallback_bernoullis", "count/rep"),
    ("samplers.topup_draws", "count/rep"),
    ("samplers.young_s", "s/rep"),
    ("samplers.shuffle_s", "s/rep"),
    ("samplers.inversion_scalar_self_s", "s/rep"),
    ("perm.reconstruct_ell_calls", "count/rep"),
    ("perm.reconstruct_ell_s", "s/rep"),
    ("perm.eliminate_s", "s/rep"),
    ("perm.window_s", "s/rep"),
    ("qseries.table_calls", "count/rep"),
    ("qseries.table_s", "s/rep"),
    ("dist.displacement_s", "s/rep"),
    ("dist.fdd_s", "s/rep"),
    ("dist.failed", "count/rep"),
    ("dist.vacuous_tail_bounds", "count/rep"),
    ("oracle.enumerate_s", "s/rep"),
    ("verify.suite_self_s", "s/rep"),
    ("cli.self_s", "s/rep"),
    ("trace.overhead_frac", "frac"),
)

#: fresh interpreters timed per --trace 0 run; setup_s is their median
SETUP_REPEATS = 5


def import_package():
    """Import mallows from this checkout's src/, never from elsewhere."""
    if not (SRC / "mallows" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package at {SRC / 'mallows'}")
    sys.path.insert(0, str(SRC))
    import mallows

    if Path(mallows.__file__).resolve().parent != SRC / "mallows":
        raise ImportError(f"mallows imported from {mallows.__file__}, not {SRC}")
    return mallows


def measure_setup(setup_code: str) -> float:
    """Seconds from the start of a fresh interpreter's import to the end of
    its first call."""
    code = (f"import sys, time\nt0 = time.perf_counter()\nsys.path.insert(0, {str(SRC)!r})\n"
            f"{setup_code}print(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


_REF_VALUES = np.linspace(0.01, 1.0, 256)


def reference_loop() -> None:
    """Fixed work in the package's styles that defines the time unit "ref":
    q-shuffle style set lookups, short numpy calls on small arrays, and
    float powers.  It does not call the package."""
    for r in range(40):
        used: set[int] = set()
        for i in range(12):
            skip, v = (7 * i + r) % 5, 1
            while v in used or skip:
                if v not in used:
                    skip -= 1
                v += 1
            used.add(v)
    for _ in range(50):
        np.nonzero(np.floor(np.log(_REF_VALUES) / -0.69).astype(np.int64))
    total = 0.0
    for i in range(300):
        total += 0.93 ** (i % 50) / (1.0 - 0.93 ** (i % 7 + 1))


class RefClock:
    """Seconds one reference loop takes, measured at marks between stretches
    of timed work.  Dividing a duration by the value at the marks around it
    expresses it in refs: the host's speed drifts by up to 1.7x over seconds
    and moves both alike, so refs are steadier than seconds."""

    REPEATS = 6

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def mark(self) -> None:
        t = time.perf_counter()
        for _ in range(self.REPEATS):
            reference_loop()
        now = time.perf_counter()
        self.refs.append((now - t) / self.REPEATS)
        self.times.append(now)

    def refs_of(self, end: float, seconds: float) -> float:
        """``seconds`` of work that ended at ``end``, in refs."""
        k = bisect.bisect_left(self.times, end)
        before = self.refs[max(k - 1, 0)]
        after = self.refs[min(k, len(self.refs) - 1)]
        return 2.0 * seconds / (before + after)


def _loop(wl, seconds: float, step, aside=None) -> int:
    """Warm up with rep 0, then call step(i) for i = 0, 1, ... until
    ``seconds`` have passed; returns the rep count.  Rep 0 runs twice, so
    its outputs are compared for determinism.  ``aside(elapsed)`` runs
    between reps and its time does not count towards ``seconds``."""
    reference = wl.digest(wl.run(0))
    gc.collect()
    start = time.perf_counter()
    aside_s = 0.0
    i = 0
    while True:
        digest = step(i)
        if i == 0 and digest != reference:
            wl.problem("determinism: rep 0 gave different outputs on its second run")
        i += 1
        elapsed = time.perf_counter() - start - aside_s
        if elapsed >= seconds:
            return i
        if aside is not None:
            t = time.perf_counter()
            aside(elapsed)
            aside_s += time.perf_counter() - t


def untraced_run(wl, seconds: float) -> tuple[dict, dict]:
    """Timed reps, with the set-up interpreters spread over the run so that
    setup_s samples the host at several moments, as the reps do."""
    clock = RefClock()
    wl.mark = clock.mark
    walls, walls_ref, lat, lat_ref, setups = [], [], [], [], []
    totals = {"ops": 0, "failed": 0, "seconds": 0.0}

    def step(i):
        if i == 0:
            clock.mark()
        rep = wl.run(i)
        clock.mark()
        walls.append(rep.seconds)
        walls_ref.append(sum(clock.refs_of(end, s) for end, s in rep.spans))
        lat.append(np.array([s for _, s in rep.lat]))
        lat_ref.append(np.array([clock.refs_of(end, s) for end, s in rep.lat]))
        totals["ops"] += rep.ops
        totals["failed"] += rep.failed
        totals["seconds"] += rep.seconds
        wl.absorb(rep)
        return wl.digest(rep)

    def aside(elapsed):
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(measure_setup(wl.setup_code))
            clock.mark()

    reps = _loop(wl, seconds, step, aside)
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(wl.setup_code))
    wl.finish()
    lat, lat_ref = np.concatenate(lat), np.concatenate(lat_ref)
    done = totals["ops"] - totals["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(walls_ref),
        "ops_per_ref": done / sum(walls_ref),
        "op_p50_ref": float(np.percentile(lat_ref, 50)),
        "op_p90_ref": float(np.percentile(lat_ref, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": done / totals["ops"],
    }
    detail = {"reps": reps, "latency_samples": len(lat), "setup_samples_s": setups,
              "ref_s_median": statistics.median(clock.refs),
              "seconds_view": {"wall_s": statistics.median(walls),
                               "ops_per_s": done / totals["seconds"],
                               "op_p50_us": 1e6 * float(np.percentile(lat, 50)),
                               "op_p90_us": 1e6 * float(np.percentile(lat, 90))},
              **totals}
    return metrics, detail


def traced_run(wl, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced reps alternate on the same inputs; the traced
    copy must give the same outputs, and no wrapper may be left behind."""
    from tracing import Tracer, layer_metrics, leftover_wrappers, package_modules

    modules = package_modules()
    namespaces = [m for n, m in sys.modules.items() if n == "mallows" or n.startswith("mallows.")]
    tracer = Tracer()
    totals = {"ops": 0, "failed": 0, "untraced_s": 0.0, "traced_s": 0.0}
    counts: dict[str, float] = {}

    def step(i):
        plain = wl.run(i)
        tracer.install(modules, namespaces)
        try:
            traced = wl.run(i)
        finally:
            tracer.restore()
        digest = wl.digest(plain)
        if wl.digest(traced) != digest:
            wl.problem(f"tracing changed the outputs of rep {i}")
        wl.absorb(plain)
        totals["ops"] += traced.ops
        totals["failed"] += traced.failed
        totals["untraced_s"] += plain.seconds
        totals["traced_s"] += traced.seconds
        for k, v in traced.counts.items():
            counts[k] = counts.get(k, 0) + v
        return digest

    reps = _loop(wl, seconds, step)
    wl.finish()
    left = leftover_wrappers(namespaces)
    if left:
        wl.problem(f"wrappers left after restore: {left[:5]}")
    metrics = layer_metrics(tracer.agg, reps, totals["ops"], counts)
    metrics["trace.overhead_frac"] = totals["traced_s"] / totals["untraced_s"] - 1.0
    spans = sorted(([n, p, *rec] for (n, p), rec in tracer.agg.items()), key=lambda r: -r[3])
    detail = {"reps": reps, **totals,
              "spans": {"columns": ["name", "parent", "calls", "incl_s", "self_s", "units",
                                    "raised"], "rows": spans}}
    return metrics, detail


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def provenance(seed: int, load_start) -> dict:
    import scipy

    src_files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="'all' runs every workload, untraced then traced, in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(trace)]).returncode
            for name in WORKLOADS for trace in (0, 1)
        )
    load_start = _loadavg()
    try:
        import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed)
    if args.trace:
        metrics, detail = traced_run(wl, args.seconds)
        table = PER_LAYER
    else:
        metrics, detail = untraced_run(wl, args.seconds)
        table = END_TO_END
    attempted, failed = detail["ops"], detail["failed"]
    result = {
        "correct": not wl.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    record = {**result, "workload": args.workload, "trace": args.trace,
              "problems": wl.problems, "errors": wl.errors, "detail": detail,
              "provenance": provenance(args.seed, load_start)}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for problem in wl.problems:
        print(f"CHECK FAILED {problem}")
    for name, unit in table:
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"{args.workload} attempted={attempted} failed={failed} reps={detail['reps']} "
          f"errors={wl.errors} -> {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
