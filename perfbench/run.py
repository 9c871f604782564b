#!/usr/bin/env python3
"""tsvkit benchmark: seeded closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload extract_dense --seed 1 --seconds 30 --trace 0

One process, one client, no threads: each job starts when the previous one
has finished.  The package is imported from ``src/`` of this checkout and
sees only the inputs generated from ``--seed``.  Every job's output is
checked against an independent route, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, and reports the per-layer metrics: the
benchmark rebinds the public functions listed in ``TRACED`` (in every
``tsvkit`` module that imported them) to timing wrappers, and restores the
bindings afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context.  perfbench/README.md describes the workloads and
maps each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
WARMUP_POINTS = 11
TAIL_MIN_BEYOND = 10
# Beyond p90 the latency of a sub-millisecond design_space job is set by OS
# preemption on a shared 2-core machine (p99.9 reads 3-5 ms for 0.43 ms jobs,
# with the garbage collector off too), not by the package.
TAIL_MAX_PERCENT = 90

# Each perturbed key is scaled by a log-uniform factor in [1/1.15, 1.15]; every
# such design is valid and keeps beta far below the narrowband warning level.
PERTURB = 1.15
PERTURBED_KEYS = ("height", "radius", "pitch", "liner_thickness",
                  "rho_cu", "eps_ox", "eps_si", "n_a", "sigma_si", "temperature")

# Public functions timed in the traced run, by module.  Time spent in a public
# function not listed here counts toward the self time of its caller's span.
TRACED = {
    "cli": ("main",),
    "params": ("geometry_from_mapping", "materials_from_mapping",
               "load_config", "parse_config_text"),
    "rlgc": ("r_total", "rlgc_at"),
    "network": ("z_sweep", "z_matrix_at", "z_matrix_mna", "verify_dual_route",
                "z_sweep_csv"),
    "numerics": ("solve_extended", "condition_number"),
    "sparams": ("s_sweep", "z_to_s", "s_to_z", "s_sweep_csv", "max_singular_value"),
    "touchstone": ("write_s3p", "read_s3p"),
    "spur": ("substrate_transfer", "calibrate_k_sub", "amplitude_sweep",
             "frequency_sweep", "spur_dbc"),
}

# Spans that also record the size of the Touchstone text: (position, keyword).
PAYLOAD_ARGS = {"touchstone.write_s3p": (1, "destination"),
                "touchstone.read_s3p": (0, "source")}

END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("success_frac", "ratio"))

PER_LAYER = (
    ("sparams.s_sweep.self_s", "s"),
    ("sparams.z_to_s.calls", "count"),
    ("sparams.z_to_s.self_s", "s"),
    ("numerics.solve_extended.calls", "count"),
    ("numerics.solve_extended.self_s", "s"),
    ("numerics.condition_number.calls", "count"),
    ("numerics.condition_number.self_s", "s"),
    ("network.z_sweep.self_s", "s"),
    ("network.z_matrix_at.calls", "count"),
    ("network.z_matrix_at.self_s", "s"),
    ("network.z_matrix_at.per_point", "ratio"),
    ("network.z_sweep_csv.self_s", "s"),
    ("sparams.s_sweep_csv.self_s", "s"),
    ("rlgc.r_total.calls", "count"),
    ("touchstone.write_s3p.self_s", "s"),
    ("touchstone.write_s3p.bytes", "B"),
    ("touchstone.read_s3p.self_s", "s"),
    ("touchstone.read_s3p.bytes", "B"),
    ("network.verify_dual_route.self_s", "s"),
    ("network.z_matrix_mna.calls", "count"),
    ("network.z_matrix_mna.self_s", "s"),
    ("sparams.s_to_z.calls", "count"),
    ("sparams.s_to_z.self_s", "s"),
    ("sparams.max_singular_value.self_s", "s"),
    ("rlgc.rlgc_at.calls", "count"),
    ("rlgc.rlgc_at.self_s", "s"),
    ("spur.substrate_transfer.calls", "count"),
    ("spur.substrate_transfer.self_s", "s"),
    ("spur.calibrate_k_sub.self_s", "s"),
    ("spur.amplitude_sweep.self_s", "s"),
    ("spur.frequency_sweep.self_s", "s"),
    ("spur.spur_dbc.calls", "count"),
    ("params.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def import_tsvkit():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    # One thread per workload: keep OpenBLAS from starting its thread pool.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    package = SRC / "tsvkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source in {package}")
    sys.path.insert(0, str(SRC))
    import tsvkit
    import tsvkit.cli  # the package __init__ does not import the CLI
    if Path(tsvkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tsvkit from {tsvkit.__file__}, not {package}")
    return tsvkit


def random_design(rng, tk) -> dict:
    """Default geometry and materials with each PERTURBED_KEYS value scaled."""
    design = {k: getattr(tk.DEFAULT_GEOMETRY, k) for k in tk.params.GEOMETRY_KEYS}
    design.update({k: getattr(tk.DEFAULT_MATERIALS, k) for k in tk.params.MATERIAL_KEYS})
    for key in PERTURBED_KEYS:
        design[key] *= PERTURB ** rng.uniform(-1.0, 1.0)
    return design


def write_config(path: Path, design: dict) -> str:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in design.items()), encoding="ascii")
    return str(path)


def design_objects(tk, design):
    """Parameter objects built directly, not through the mapping helpers under test."""
    geom = tk.TsvGeometry(**{k: design[k] for k in tk.params.GEOMETRY_KEYS})
    mat = tk.MaterialParams(**{k: design[k] for k in tk.params.MATERIAL_KEYS})
    return geom, mat


def sigma_max(s):
    import numpy as np
    return float(np.linalg.svd(s, compute_uv=False).max())


class ExtractDense:
    """``tsvkit extract`` at 20,001 points, then ``read_s3p`` of the written file."""

    points = 20001
    n_designs = 4
    n_checked = 4      # seeded grid points checked against the MNA route, plus both ends

    def __init__(self, tk, rng, workdir: Path):
        self.tk = tk
        self.designs = [random_design(rng, tk) for _ in range(self.n_designs)]
        self.configs = [write_config(workdir / f"design{i}.cfg", d)
                        for i, d in enumerate(self.designs)]
        self.s3p = str(workdir / "pair.s3p")
        self.csv = str(workdir / "pair.csv")
        self.z_csv = str(workdir / "pair_z.csv")
        self.checked = sorted({0, self.points - 1,
                               *rng.sample(range(1, self.points - 1), self.n_checked)})

    def job(self, i, points):
        argv = ["extract", "--config", self.configs[i % self.n_designs],
                "--points", str(points), "--out", self.s3p, "--csv", self.csv,
                "--z-csv", self.z_csv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tk.cli.main(argv)
        doc = self.tk.touchstone.read_s3p(self.s3p) if code == 0 else None
        return code, doc

    def warm_up(self):
        self.job(0, WARMUP_POINTS)

    def check(self, i, result):
        import numpy as np
        code, doc = result
        if code != 0:
            return f"extract exited with {code}"
        n = self.points
        if len(doc.records) != n:
            return f"read_s3p gave {len(doc.records)} records, expected {n}"
        text = Path(self.s3p).read_text(encoding="ascii")
        lines = text.splitlines()
        if [ln for ln in lines if ln.startswith("#")] != ["# Hz S RI R 50"]:
            return "unexpected option line"
        data = [ln for ln in lines if ln and ln[0] not in "!#"]
        values = np.array(" ".join(data).split(), dtype=float)
        if values.size != n * 19:
            return f"file holds {values.size} numbers, expected {n * 19}"
        values = values.reshape(n, 19)
        f = np.logspace(math.log10(1e6), math.log10(100e9), n)
        if np.abs(values[:, 0] / f - 1.0).max() > 1e-8:
            return "record frequencies differ from the logarithmic grid"
        s = (values[:, 1::2] + 1j * values[:, 2::2]).reshape(n, 3, 3)
        # Nine significant digits: the file is held to the Touchstone tolerance.
        sigma = sigma_max(s)
        if sigma > 1.0 + 1e-8:
            return f"file sigma_max {sigma:.12f} above 1 + 1e-8"
        geom, mat = design_objects(self.tk, self.designs[i % self.n_designs])
        for k in self.checked:
            if not np.array_equal(doc.records[k][1], s[k]):
                return f"read_s3p and the plain parse differ at record {k}"
            ref = self.tk.sparams.z_to_s(
                self.tk.network.z_matrix_mna(f[k], self.tk.rlgc.rlgc_at(f[k], geom, mat))).s
            if np.abs(s[k] - ref).max() > 1e-8 * np.abs(ref).max():
                return f"S at {f[k]:.6g} Hz differs from the MNA route"
            sigma = sigma_max(ref)
            if sigma > 1.0 + 1e-9:
                return f"MNA-route sigma_max {sigma:.12f} at {f[k]:.6g} Hz"
        return None

    def expected_calls(self):
        n = self.points
        return {"numerics.solve_extended": n, "numerics.condition_number": n,
                "network.z_matrix_at": n}


class ValidateSweep:
    """``tsvkit validate --json`` at 2,001 points: the slow, exact reference routes."""

    points = 2001
    n_designs = 4
    check_names = {"dual_route_z", "reciprocity", "passivity", "z_s_roundtrip",
                   "touchstone_roundtrip", "transfer_dual_route"}

    def __init__(self, tk, rng, workdir: Path):
        self.tk = tk
        self.configs = [write_config(workdir / f"design{i}.cfg", random_design(rng, tk))
                        for i in range(self.n_designs)]

    def job(self, i, points):
        argv = ["validate", "--json", "--points", str(points),
                "--config", self.configs[i % self.n_designs]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.tk.cli.main(argv)
        return code, out.getvalue()

    def warm_up(self):
        self.job(0, WARMUP_POINTS)

    def check(self, i, result):
        code, text = result
        if code != 0:
            return f"validate exited with {code}"
        report = json.loads(text.strip().splitlines()[-1])
        names = {c["name"] for c in report["checks"] if c["passed"]}
        if report["passed"] is not True or names != self.check_names:
            return f"validate report: {report}"
        return None

    def expected_calls(self):
        n = self.points
        return {"numerics.solve_extended": 3 * n + 1, "numerics.condition_number": 2 * n,
                "network.z_matrix_at": 2 * n}


class DesignSpace:
    """One seeded design per job: elements and S at 10 GHz, calibration, both spur sweeps."""

    points = 1           # the 10 GHz probe is the job's only grid point
    n_designs = 256
    probe_hz = 10e9
    warm_up_jobs = 200

    def __init__(self, tk, rng, workdir: Path):
        import numpy as np
        self.tk = tk
        self.designs = [random_design(rng, tk) for _ in range(self.n_designs)]
        # The `tsvkit spur` defaults: 7 steps over 0.1-0.7 Vpp and 0.5-2 GHz.
        self.amplitudes = np.linspace(0.1, 0.7, 7)
        self.frequencies = np.linspace(0.5e9, 2e9, 7)

    def job(self, i, points):
        tk = self.tk
        design = self.designs[i % self.n_designs]
        geom = tk.params.geometry_from_mapping(design)
        mat = tk.params.materials_from_mapping(design)
        elements = tk.rlgc.rlgc_at(self.probe_hz, geom, mat)
        sp = tk.sparams.z_to_s(tk.network.z_matrix_at(self.probe_hz, elements))
        cal = tk.spur.calibrate_k_sub(tk.spur.BUILTIN_CALIBRATION_POINTS, geom, mat)
        osc = tk.spur.OscillatorModel(k_sub=cal.k_sub)
        amp = tk.spur.amplitude_sweep(osc, geom, mat, self.amplitudes)
        freq = tk.spur.frequency_sweep(osc, geom, mat, self.frequencies)
        return sp, amp, freq

    def warm_up(self):
        for i in range(self.warm_up_jobs):
            self.job(i, self.points)

    def check(self, i, result):
        sp, amp, freq = result
        levels = [y for _, y in amp + freq]
        if len(levels) != 14 or not all(math.isfinite(y) for y in levels):
            return "non-finite or missing spur level"
        xs = [math.log2(x) for x, _ in amp]
        ys = [y for _, y in amp]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        if abs(slope - 6.02) > 0.5:
            return f"amplitude slope {slope:.3f} dB/octave"
        sigma = sigma_max(sp.s)
        if sigma > 1.0 + 1e-9:
            return f"sigma_max {sigma:.12f} at 10 GHz"
        return None

    def expected_calls(self):
        return {"numerics.solve_extended": 1, "numerics.condition_number": 1,
                "network.z_matrix_at": 1, "spur.substrate_transfer": 9,
                "rlgc.rlgc_at": 10, "spur.spur_dbc": 14}


WORKLOADS = {"extract_dense": ExtractDense, "validate_sweep": ValidateSweep,
             "design_space": DesignSpace}


class Tracer:
    """Call count, self time and payload bytes per span name, summed over jobs.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  Spans are aggregated as they close, not stored.
    """

    def __init__(self):
        self.active = False
        self._stack = []
        self._job = {}
        self.total = {}
        self.jobs = 0
        self.first_calls = None
        self.calls_repeat = True

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = stack.pop()
            stat = self._job.setdefault(name, [0, 0.0, 0])
            stat[0] += 1
            stat[1] += elapsed - children
            if stack:
                stack[-1] += elapsed

    def add_bytes(self, name, count):
        self._job[name][2] += count

    def end_job(self):
        calls = {name: stat[0] for name, stat in self._job.items()}
        if self.first_calls is None:
            self.first_calls = calls
        elif calls != self.first_calls:
            self.calls_repeat = False
        for name, stat in self._job.items():
            total = self.total.setdefault(name, [0, 0.0, 0])
            for k in range(3):
                total[k] += stat[k]
        self._job = {}
        self.jobs += 1

    def per_job(self, name, field):
        return self.total.get(name, [0, 0.0, 0])[field] / self.jobs


def payload_bytes(obj) -> int:
    if isinstance(obj, io.StringIO):
        return len(obj.getvalue())
    if isinstance(obj, str) and "\n" in obj:
        return len(obj)
    return os.path.getsize(obj)


def make_wrapper(name, fn, tracer):
    payload = PAYLOAD_ARGS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if payload is not None and tracer.active:
            pos, key = payload
            tracer.add_bytes(name, payload_bytes(args[pos] if len(args) > pos else kwargs[key]))
        return result
    return traced


@contextlib.contextmanager
def traced_bindings(tracer):
    """Rebind every ``tsvkit`` module attribute that is a TRACED function.

    This covers names a module imported from another one (``tsvkit.cli.z_sweep``,
    ``tsvkit.sparams.solve_extended``, the package re-exports) as well as the
    home binding.  All bindings are restored on exit.
    """
    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"tsvkit.{layer}"]
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, make_wrapper(f"{layer}.{fname}", fn, tracer))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "tsvkit" and not modname.startswith("tsvkit."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield len(patched)
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
        if any(getattr(module, attr) is not value for module, attr, value in patched):
            raise RuntimeError("a traced binding was not restored")


def run_window(workload, seconds, tk, first_job=0, tracer=None):
    """Closed loop for ``seconds`` of wall time; checks run between jobs, untimed."""
    latencies, failures = [], []
    check_s = 0.0
    i = first_job
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        if tracer:
            tracer.active = True
        try:
            result, error = workload.job(i, workload.points), None
        except tk.TsvKitError as err:
            result, error = None, f"{type(err).__name__}: {err}"
        finally:
            if tracer:
                tracer.active = False
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if tracer:
            tracer.end_job()
        if error is None:
            error = workload.check(i, result)
        if error:
            failures.append(f"job {i}: {error}")
        check_s += time.perf_counter() - t1
        i += 1
    busy = time.perf_counter() - start - check_s
    ok = len(latencies) - len(failures)
    return {"latencies": latencies, "failures": failures, "busy_s": busy,
            "jobs_per_s": ok / busy}


def tail(latencies):
    """Latency at the highest percentile, up to p90, with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is reported
    and the context records zero samples beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        return xs[-1], 100.0, 0
    k = min(n - 1 - TAIL_MIN_BEYOND, -(-n * TAIL_MAX_PERCENT // 100) - 1)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def measure_setup(args):
    """Seconds from launching a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
        samples.append(elapsed)
    return samples


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_plain(args, workload, tk, context):
    setup = measure_setup(args)
    workload.warm_up()
    window = run_window(workload, args.seconds, tk)
    lat = window["latencies"]
    tail_s, tail_pct, beyond = tail(lat)
    context.update(jobs=len(lat), tail_percentile=tail_pct, tail_samples_beyond=beyond,
                   setup_samples_s=setup)
    values = {
        "jobs_per_s": window["jobs_per_s"],
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - len(window["failures"]) / len(lat),
    }
    return [window], {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(args, workload, tk, context):
    workload.warm_up()
    plain = run_window(workload, args.seconds / 2.0, tk)
    tracer = Tracer()
    with traced_bindings(tracer) as patched:
        traced = run_window(workload, args.seconds / 2.0, tk,
                            first_job=len(plain["latencies"]), tracer=tracer)
    expected = workload.expected_calls()
    counts = dict(sorted(tracer.first_calls.items()))
    context.update(
        untraced_jobs=len(plain["latencies"]), traced_jobs=tracer.jobs,
        bindings_patched=patched, calls_per_job=counts, counts_repeat=tracer.calls_repeat,
        counts_match_code=all(counts.get(k, 0) == v for k, v in expected.items()))

    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.per_job(span, 0)
        elif field == "bytes":
            values[name] = tracer.per_job(span, 2)
        elif name == "params.self_s":
            values[name] = sum(tracer.per_job(s, 1) for s in tracer.total
                               if s.startswith("params."))
        elif name == "network.z_matrix_at.per_point":
            values[name] = tracer.per_job("network.z_matrix_at", 0) / workload.points
        elif name == "trace.overhead_frac":
            # Attempted rather than passed jobs, so that failures cannot divide by zero.
            values[name] = (traced["busy_s"] / len(traced["latencies"])
                            / (plain["busy_s"] / len(plain["latencies"])) - 1.0)
        else:
            values[name] = tracer.per_job(span, 1)
    return [plain, traced], {name: {"value": values[name], "unit": unit}
                             for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    tk = import_tsvkit()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](tk, random.Random(f"{args.workload}:{args.seed}"),
                                            workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        import numpy as np
        context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "nproc": os.cpu_count(),
                   "python": platform.python_version(), "numpy": np.__version__,
                   "tsvkit": tk.__version__, "git_commit": git_commit(),
                   "grid_points": workload.points, "designs": workload.n_designs}
        run = run_traced if args.trace else run_plain
        windows, metrics = run(args, workload, tk, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    attempted = sum(len(w["latencies"]) for w in windows)
    failures = [msg for w in windows for msg in w["failures"]]
    context.update(attempted=attempted, failed=len(failures), failures=failures[:5])
    for msg in failures[:5]:
        print(f"perfbench: failed {msg}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
