"""Workload process of the benchmark: the only code here that imports nefkit.

    python3 bench/child.py setup|pass|trace|layers WORKLOAD SEED [SECONDS]

Started by bench/run.py in a fresh interpreter with PYTHONPATH pointing at
the checkout's src/. Prints one JSON object on stdout:

* setup:  time to import nefkit, load the shipped datasets and build inputs.
* pass:   setup, then a closed loop with one client for SECONDS: per-operation
          latency, work units, distinct outputs, failures and peak RSS.
* trace:  the same pass with a span around every call into nefkit; spans stay
          in memory and are written to .bench_out/ when the pass ends.
* layers: direct calls into each layer's public functions on the inputs the
          operations hand down, as median times per call.
"""

from __future__ import annotations

import time

# nefkit is imported first, so that set-up time covers its whole import.
T0 = time.perf_counter()
import nefkit  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
CLI_TIMEOUT_S = 60
PROBE_EVERY_S = 0.025

# Public names the benchmark calls, by module. Methods are reached through
# their class so that a traced run can wrap them too.
API = {
    "exactnum": ("complete_homogeneous", "elementary_symmetric"),
    "chern": (
        "CIType", "WeightedHypersurface", "euler_ci_formula", "euler_ci_series",
        "euler_ci_recursive", "chern_degrees_ci", "betti_ci", "euler_weighted",
        "euler_delpezzo_closed",
    ),
    "diagonal": ("scan_ci", "verdict_ci"),
    "cones": (
        "builtin_dataset", "load_dataset", "dual_cone", "nef_cone_of_codim",
        "RationalCone.contains",
    ),
    "cli": ("main",),
}


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent span, operation id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            op = self.stack[0] if self.stack else span_id
            self.spans.append(None)
            self.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[span_id] = (name, start, end, parent, op)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as fh:
            for span_id, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")

    def summary(self) -> dict:
        """Per span name: count, total ms and self ms (total minus children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = {}
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e6
            row[2] += (end - start - child_ns[span_id]) / 1e6
        return out


def load_api(tracer: Tracer | None) -> SimpleNamespace:
    names = {}
    for module, attrs in API.items():
        mod = importlib.import_module(f"nefkit.{module}")
        for attr in attrs:
            fn = mod
            for part in attr.split("."):
                fn = getattr(fn, part)
            key = attr.rsplit(".", 1)[-1]
            names[key] = tracer.wrap(f"{module}.{attr}", fn) if tracer else fn
    return SimpleNamespace(**names)


def setup(workload: str, seed: int, tracer: Tracer | None = None) -> SimpleNamespace:
    """Load the shipped datasets and build the inputs; set-up time adds this
    to the import of nefkit."""
    src = ROOT / "src"
    if src not in Path(nefkit.__file__).resolve().parents:
        raise SystemExit(f"nefkit imported from {nefkit.__file__}, not from {src}")
    start = time.perf_counter()
    api = load_api(tracer)
    datasets = {name: api.builtin_dataset(name) for name in wl.DATASETS}
    pool = wl.inputs(workload, seed)
    setup_s = IMPORT_S + time.perf_counter() - start
    return SimpleNamespace(api=api, datasets=datasets, pool=pool, setup_s=setup_s,
                           probe_ns=speed.probe())


# ---------------------------------------------------------------------------
# Operations: each returns (JSON-able output, work units)


def sweep_op(ctx, grid):
    report = ctx.api.scan_ci(*grid)
    return report.to_payload(), wl.sweep_cases(*grid[:3])


def routes_op(ctx, item):
    api = ctx.api
    if item[0] == "weighted":
        _, weights, degree, n, family = item
        chi = api.euler_weighted(api.WeightedHypersurface(weights, degree))
        return [chi.numerator, chi.denominator, api.euler_delpezzo_closed(n, family)], 1
    _, degrees, n = item
    ci = api.CIType(degrees, n)
    table = api.betti_ci(ci)
    return [
        api.euler_ci_formula(ci),
        api.euler_ci_series(ci),
        api.euler_ci_recursive(ci),
        api.chern_degrees_ci(ci),
        table.euler_characteristic,
        table.middle,
    ], 1


def cones_op(ctx, job):
    api = ctx.api
    m = job["m"]
    if m == 0:
        return [
            [name, codim, api.nef_cone_of_codim(ds, codim).generators]
            for name, ds in ctx.datasets.items()
            for codim in range(ds.dimension + 1)
        ], 1
    ident = wl.identity(m)
    cone = api.dual_cone(job["gens"], ident)
    out = {"rays": cone.generators}
    if m <= 4:
        second = api.dual_cone(cone.generators, ident)
        out["second"] = second.generators
        out["third"] = api.dual_cone(second.generators, ident).generators
        out["contains"] = [api.contains(cone, v) for v in job["queries"]]
    return out, 1


def cli_op(ctx, index):
    argv = wl.CLI_CORPUS[index][0]
    proc = subprocess.run(
        [sys.executable, "-m", "nefkit", "--format", "json", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return [proc.returncode, proc.stdout, bool(proc.stderr.strip())], 1


OPS = {"sweep": sweep_op, "routes": routes_op, "cones": cones_op, "cli": cli_op}


def run_pass(workload: str, ctx, seconds: float, tracer: Tracer | None) -> dict:
    op = OPS[workload]
    if tracer:
        op = tracer.wrap(f"op.{workload}", op)
    pool = ctx.pool
    latencies_ns: list[int] = []
    blocks: list[int] = []  # per operation: index of the last probe before it
    probes = [speed.probe()]
    units = 0
    distinct: dict = {}
    outputs: list[int] = []
    errors: list = []
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start + PROBE_EVERY_S
    i = 0
    while (now := time.perf_counter()) < deadline:
        if now >= next_probe:
            probes.append(speed.calibrate())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        index = i % len(pool)
        i += 1
        t = time.perf_counter_ns()
        try:
            out, work = op(ctx, pool[index])
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies_ns.append(time.perf_counter_ns() - t)
            errors.append([index, repr(exc)[:300]])
            out_id = -1
        else:
            latencies_ns.append(time.perf_counter_ns() - t)
            units += work
            out_id = distinct.setdefault((index, json.dumps(out, sort_keys=True)), len(distinct))
        blocks.append(len(probes) - 1)
        outputs.append(out_id)
    elapsed = time.perf_counter() - start
    probes.append(speed.probe())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": ctx.setup_s,
        "setup_probe_ns": ctx.probe_ns,
        "elapsed_s": elapsed,
        "units": units,
        "latencies_ms": [ns / 1e6 for ns in latencies_ns],
        "blocks": blocks,
        "probes_ns": probes,
        "peak_rss_mb": peak_kb / 1024,
        "distinct": [[index, text] for index, text in distinct],
        "outputs": outputs,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# Layer timings from outside, by direct calls


def per_call_us(fn, calls) -> float:
    samples = []
    for args in calls:
        t = time.perf_counter_ns()
        fn(*args)
        samples.append(time.perf_counter_ns() - t)
    return speed.median(samples) / 1e3


def sweep_layers(api) -> dict:
    scan_s, floor_s, cases, law_checks = [], [], 0, 0
    ci_calls, h_calls = [], []
    for grid in wl.sweep_layer_grids():
        cis = [api.CIType(degrees, n) for degrees, n in wl.grid_types(*grid[:3])]
        t = time.perf_counter()
        report = api.scan_ci(*grid)
        scan_s.append(time.perf_counter() - t)
        cases += report.cases
        law_checks += sum(report.law_checks.values())
        t = time.perf_counter()
        for ci in cis:
            api.euler_ci_formula(ci)
        floor_s.append(time.perf_counter() - t)
        ci_calls += [(ci,) for ci in cis]
        # the h_k arguments euler_ci_formula hands down, every fourth case
        h_calls += [(ci.dimension - i, ci.degrees) for ci in cis[::4]
                    for i in range(ci.dimension + 1)]
    return {
        "exactnum.complete_homogeneous.us": per_call_us(api.complete_homogeneous, h_calls),
        "chern.euler_ci_formula.us": per_call_us(api.euler_ci_formula, ci_calls),
        "diagonal.verdict_ci.us": per_call_us(api.verdict_ci, ci_calls),
        "diagonal.scan_ci.s": speed.median(scan_s),
        "diagonal.scan_ci.formula_floor_s": speed.median(floor_s),
        "diagonal.scan_ci.cases": cases,
        "diagonal.scan_ci.law_checks": law_checks,
    }


def routes_layers(api, pool) -> dict:
    cis = [api.CIType(item[1], item[2]) for item in pool if item[0] == "ci"]
    # First and only pass with the recursion's memo cold in this process.
    recursive = per_call_us(api.euler_ci_recursive, [(ci,) for ci in cis])
    spread = sorted(cis, key=lambda ci: (ci.dimension, ci.codimension))[::4]
    weighted = [item for item in pool if item[0] == "weighted"]
    surfaces = [(api.WeightedHypersurface(item[1], item[2]),) for item in weighted]
    e_calls = [(k, item[1]) for item in weighted for k in range(len(item[1]) - 1)]
    return {
        "chern.euler_ci_recursive.us": recursive,
        "chern.euler_ci_series.us": per_call_us(api.euler_ci_series, [(ci,) for ci in spread]),
        "chern.chern_degrees_ci.us": per_call_us(api.chern_degrees_ci, [(ci,) for ci in spread]),
        "chern.betti_ci.us": per_call_us(api.betti_ci, [(ci,) for ci in cis]),
        "chern.euler_weighted.us": per_call_us(api.euler_weighted, surfaces),
        "exactnum.elementary_symmetric.us": per_call_us(api.elementary_symmetric, e_calls),
    }


def cones_layers(api, pool, datasets) -> dict:
    out, rays, contains = {}, 0, []
    for m in (3, 4, 5, 6):
        ident = wl.identity(m)
        build_ms = []
        for job in [job for job in pool if job["m"] == m][:6]:
            for _ in range(3 if m <= 4 else 1):  # small builds are repeated
                t = time.perf_counter_ns()
                cone = api.dual_cone(job["gens"], ident)
                build_ms.append((time.perf_counter_ns() - t) / 1e6)
            rays += len(cone.generators)
            contains += [(cone, v) for v in job["queries"]]
        out[f"cones.dual_cone.ms.m{m}"] = speed.median(build_ms)
    texts = [
        resources.files("nefkit").joinpath(f"data/{name}.json").read_text("utf-8")
        for name in datasets
    ]
    codims = [(ds, c) for ds in datasets.values() for c in range(ds.dimension + 1)]
    out["cones.dual_cone.rays"] = rays
    out["cones.contains.us"] = per_call_us(api.contains, contains)
    out["cones.load_dataset.us"] = per_call_us(api.load_dataset, [(t,) for t in texts] * 20)
    out["cones.nef_cone_of_codim.us"] = per_call_us(api.nef_cone_of_codim, codims * 5)
    return out


def spawn_ms(code: str) -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=CLI_TIMEOUT_S)
    return (time.perf_counter() - t) * 1e3


def cli_layers(api) -> dict:
    # Back-to-back pairs, so that each import time has its own floor.
    pairs = [(spawn_ms("pass"), spawn_ms("import nefkit")) for _ in range(15)]

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                api.main(["--format", "json", *argv])
            except SystemExit:
                pass

    return {
        "cli.python_start_ms": speed.median([start for start, _ in pairs]),
        "cli.import_ms": speed.median([both - start for start, both in pairs]),
        "cli.main_us": per_call_us(quiet_main, [(entry[0],) for entry in wl.CLI_CORPUS] * 3),
    }


def layer_suite(ctx, seed: int) -> dict:
    """Raw per-layer values, and per value the speed probe taken around it."""
    api = ctx.api
    groups = (
        # first, so that the recursion's memo is cold for its timing
        lambda: routes_layers(api, wl.routes_inputs(seed)),
        lambda: sweep_layers(api),
        lambda: cones_layers(api, wl.cones_inputs(seed), ctx.datasets),
        lambda: cli_layers(api),
    )
    metrics, probes = {}, {}
    for group in groups:
        before = speed.probe()
        values = group()
        probe = (before + speed.probe()) / 2
        metrics.update(values)
        probes.update(dict.fromkeys(values, probe))
    return {"metrics": metrics, "probes_ns": probes}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    tracer = Tracer() if mode == "trace" else None
    ctx = setup(workload, seed, tracer)
    if mode == "setup":
        result = {"setup_s": ctx.setup_s, "setup_probe_ns": ctx.probe_ns}
    elif mode == "layers":
        result = layer_suite(ctx, seed)
    else:
        if tracer:
            tracer.spans.clear()  # keep only the spans of the timed pass
        result = run_pass(workload, ctx, float(argv[3]), tracer)
        if tracer:
            tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
            result["spans"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
