"""geomprod benchmark: one closed-loop client driving the library's public API.

Run from the repository root::

    python3 perfbench/run.py --workload check-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 5      # every workload, one after another

Each run builds its requests from ``--seed``, measures set-up time in fresh
interpreters, warms up, then sends one request at a time for ``--seconds``
seconds, checking every answer.  It prints a readable report and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run splits its time between an untraced and a traced
half, adds the start-up and CLI probes, and reports per-layer metrics from
the spans instead.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracing import NULL, Tracer, quantile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

MIN_PASSES = 3  # visits per request, for its median cost
MAX_MEASURE_S = 120.0  # hard stop for MIN_PASSES, inside the 180 s limit of a run
WARMUP_S = 2.0
WARMUP_OPS = 200
SETUP_REPEATS = 11
PROBE_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (for example, no geomprod sources)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_geomprod():
    """Import geomprod from this checkout's ``src``, after compiling it once
    so that every cold start reads the same bytecode."""
    if not (SRC / "geomprod" / "__init__.py").is_file():
        raise BenchError(f"no geomprod sources under {SRC}")
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchError("geomprod sources do not compile")
    sys.path.insert(0, str(SRC))
    import geomprod
    import geomprod.cli

    if Path(geomprod.__file__).resolve().parent != SRC / "geomprod":
        raise BenchError(f"imported geomprod from {geomprod.__file__}, not {SRC}")
    return geomprod


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
    return perf_counter() - t0, proc


def cold_import(times: list[float]) -> None:
    """Append the wall time of a fresh interpreter running ``import geomprod``."""
    dt, proc = timed_child([sys.executable, "-c", "import geomprod"])
    if proc.returncode != 0:
        raise BenchError("import geomprod failed: " + proc.stderr.decode(errors="replace"))
    times.append(dt)


_REF_TEXTS = [f"a{i}^({i % 7 - 3}/{i % 5 + 1})" for i in range(1, 17)]


def reference() -> Fraction:
    """The reference task: fixed interpreter work of 0.07 to 0.15 ms that
    splits short exponent strings, builds Fractions and sums them.  It is the
    benchmark's own code, so no change to geomprod can alter it."""
    total = Fraction(0)
    seen = {}
    for text in _REF_TEXTS:
        index, exponent = text[1:].split("^")
        num, den = exponent.strip("()").split("/")
        seen[int(index)] = e = Fraction(int(num), int(den))
        total += e * int(index)
    return total


def timed_reference() -> float:
    """Wall time of :func:`reference`.  It follows an untimed run, so that it
    finds its code and data in the caches whatever the operation before it
    evicted, and the cyclic collector is paused, so that it is never charged
    a collection of the operations' garbage."""
    gc.disable()
    reference()
    t0 = perf_counter()
    reference()
    dt = perf_counter() - t0
    gc.enable()
    return dt


def measure(reqs: list, api, tr, seconds: float, min_passes: int = 0,
            between: tuple = ()) -> dict:
    """Closed loop cycling over ``reqs`` for ``seconds`` and at least
    ``min_passes`` passes.  Only the operation is timed; its check is not.
    Each ``(fn, count)`` in ``between`` calls ``fn()`` ``count`` times,
    evenly spread over ``seconds``, between two operations.

    The reference task is timed after every operation.  On the shared
    2-vCPU host this was built on, each vCPU switched every few
    milliseconds between a fast state and one in which interpreter work
    (the reference task and most of geomprod) ran 1.6 to 1.8 times slower,
    and streaming over large arrays 1.2 to 1.3 times, in a share that
    drifted over minutes.  An operation's cost in refs is
    its wall time over the mean reference time around it (see
    :func:`costs_in_refs`), which cancels most of that.  A request's cost is
    the median of its visits.
    """
    ref_at, ref_s = [], []  # when each reference measurement was made, and its time
    visits = []  # (request, start, end, index of the reference measurement before it)
    failed = 0
    n = 0
    due = sorted(
        (((i + 0.5) * seconds / count, fn) for fn, count in between for i in range(count)),
        key=lambda d: d[0], reverse=True,
    )

    def sample_reference() -> None:
        ref_at.append(perf_counter())
        ref_s.append(timed_reference())

    sample_reference()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if due and elapsed >= due[-1][0]:
            due.pop()[1]()
            sample_reference()
            continue
        if elapsed >= MAX_MEASURE_S or (
            elapsed >= seconds and n >= min_passes * len(reqs) and not due
        ):
            break
        k = n % len(reqs)
        req = reqs[k]
        n += 1
        t0 = perf_counter()
        try:
            with tr.span("bench.op", kind=type(req).__name__):
                out = req.run(api, tr)
        except Exception as exc:  # any raise is a failed operation, counted
            out = exc
        t1 = perf_counter()
        sample_reference()
        visits.append((k, t0, t1, len(ref_s) - 2))
        if not passes(req, api, out):
            failed += 1
    costs, wall = costs_in_refs(len(reqs), visits, ref_at, ref_s)
    return {
        "costs": [statistics.median(c) for c in costs if c],
        "visit_costs": costs,
        "latencies": [statistics.median(w) for w in wall if w],
        "ref_s": statistics.median(ref_s),
        "attempted": n, "failed": failed,
    }


def costs_in_refs(n_reqs: int, visits: list, ref_at: list, ref_s: list):
    """Per request, the cost in refs and the wall time of each visit.

    A visit's cost is its wall time over the mean of the reference
    measurements made from one visit length before it started to one after
    it ended, and at least of those right before and after it.  A long
    operation spans many switches of the host's state; the measurements
    right beside it catch only the state at its ends, and the window
    catches the mix.
    """
    costs = [[] for _ in range(n_reqs)]
    wall = [[] for _ in range(n_reqs)]
    for k, t0, t1, before in visits:
        lo = min(before, bisect.bisect_left(ref_at, t0 - (t1 - t0)))
        hi = max(before + 2, bisect.bisect_right(ref_at, t1 + (t1 - t0)))
        around = ref_s[lo:hi]
        costs[k].append((t1 - t0) * len(around) / sum(around))
        wall[k].append(t1 - t0)
    return costs, wall


def passes(req, api, out) -> bool:
    """True when the operation returned and its answer passes its check.  A
    raise in either counts as a failure and is shown on stderr."""
    if not isinstance(out, Exception):
        try:
            return req.check(api, out)
        except Exception as exc:  # a wrong answer the check cannot even read
            out = exc
    print(f"  {type(req).__name__} raised {type(out).__name__}: {out}", file=sys.stderr)
    return False


def warm_up(reqs: list, api) -> None:
    """Untimed pass over the first requests, so the timed loop starts warm."""
    stop = perf_counter() + WARMUP_S
    for req in reqs[:WARMUP_OPS]:
        if perf_counter() >= stop:
            break
        try:
            req.run(api, NULL)
        except Exception:  # failures are counted in the timed loop, not here
            pass


def ops_per_kref(m: dict) -> float:
    """Requests completed per 1000 refs of busy time, at each request's
    median cost."""
    busy = sum(m["costs"])
    ok = 1 - m["failed"] / m["attempted"]
    return 1000 * len(m["costs"]) * ok / busy if busy > 0 else 0.0


def end_to_end(m: dict, setup_s: float) -> dict:
    costs = m["costs"]
    return {
        "ops_per_kref": (ops_per_kref(m), "1/kref"),
        "latency_p50_ref": (quantile(costs, 0.50), "ref"),
        "latency_p95_ref": (quantile(costs, 0.95), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_clock(m: dict) -> dict:
    """The same figures in wall time, which moves with the host's load."""
    lat = m["latencies"]
    return {
        "wall.ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "wall.latency_p50_ms": (quantile(lat, 0.50) * 1e3, "ms"),
        "wall.latency_p95_ms": (quantile(lat, 0.95) * 1e3, "ms"),
        "wall.ref_us": (m["ref_s"] * 1e6, "us"),
    }


# ------------------------------------------------------------ traced probes


def startup_probe() -> dict:
    """Interpreter floor and import costs, each the median of a few children."""
    floor = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    geomprod_us, numpy_us = [], []
    for _ in range(PROBE_REPEATS):
        _, proc = timed_child([sys.executable, "-X", "importtime", "-c", "import geomprod"])
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        geomprod_us.append(cumulative.get("geomprod", 0))
        numpy_us.append(cumulative.get("numpy", 0))
    return {
        "cli.interp_floor_ms": (statistics.median(floor) * 1e3, "ms"),
        "cli.import_geomprod_ms": (statistics.median(geomprod_us) / 1e3, "ms"),
        "cli.import_numpy_ms": (statistics.median(numpy_us) / 1e3, "ms"),
    }


def cli_argvs(rng: random.Random) -> list[list[str]]:
    """Every subcommand once, each in a seeded format, plus inputs the CLI
    must reject with exit code 2 and a JSON error document."""
    def fmt():
        return rng.choice(["text", "json", "latex"])

    def product(rational=False):
        terms = workloads.random_terms(rng, rng.randint(1, 6), 30, 0.0 if rational else 0.25)
        return workloads.product_text(rng, terms)

    lhs = workloads.random_terms(rng, rng.randint(1, 6), 30)
    rhs = workloads.variant(rng, lhs, 2, 30)
    if rng.random() < 0.5:
        rhs = workloads.perturb(rng, rhs, 30)
    ident = f"{workloads.product_text(rng, lhs)} = {workloads.product_text(rng, rhs)}"
    l = rng.randint(8, 12)
    family = ["family", "--t", "3", "--sum", str(rng.randint(9, 2 * l)), "--max-index", str(l)]
    if rng.random() < 0.5:
        family.append("--repetition")
    i, j, k = rng.sample(range(1, 12), 3)
    good = [
        ["check", ident],
        ["check", ident, "--trials", "100", "--seed", str(rng.randrange(1000))],
        ["canon", product()],
        family,
        ["decompose", "--t", "5", "--sum", str(rng.randint(10, 30)), "--parts", "2", "--max-index", "8"],
        ["solve", "--indices", f"{i},{j}", "--target", str(k), "--total", rng.choice(["1", "3/2", "2"])],
        ["collapse", product(rational=True)],
        ["eval", product(), "--a1", "1.5", "--r", "1.01"],
    ]
    bad = [
        ["check", ident.replace("=", "= *")],
        ["canon", "a0*a" + str(k)],
        ["solve", "--indices", f"{i},{i}", "--target", str(k), "--total", "1"],
        ["family", "--t", "0", "--sum", "1", "--max-index", "1"],
    ]
    return [["--format", fmt(), *argv] for argv in good] + [["--format", "json", *argv] for argv in bad]


def cli_probe(rng: random.Random, main, tr) -> tuple[int, int]:
    """Each argv in a ``python -m geomprod`` child and in-process through
    ``main``: exit code and stdout must match byte for byte, and JSON output
    must be exactly one document.  Returns (attempted, failed)."""
    argvs = cli_argvs(rng)
    failed = 0
    for argv in argvs:
        with tr.span("cli.invoke"):
            _, proc = timed_child([sys.executable, "-m", "geomprod", *argv])
        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli.main_inproc"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        ok = code == proc.returncode and out.getvalue().encode() == proc.stdout
        if ok and argv[1] == "json":
            try:
                json.loads(proc.stdout)
            except ValueError:
                ok = False
        if not ok:
            failed += 1
            print(f"  cli mismatch on {argv}: exit {proc.returncode} vs {code}", file=sys.stderr)
    return len(argvs), failed


def trace_overhead(plain: dict, traced: dict) -> float:
    """Share of the traced half's cost that tracing added, over the requests
    both halves visited, at every visit's cost: tracing costs on each."""
    both = [
        (statistics.mean(p), statistics.mean(t))
        for p, t in zip(plain["visit_costs"], traced["visit_costs"]) if p and t
    ]
    untraced = sum(p for p, _ in both)
    traced_sum = sum(t for _, t in both)
    return 1 - untraced / traced_sum if traced_sum > 0 else 0.0


def per_layer(summary: dict) -> dict:
    """Per-layer metrics from the span summary; a layer the workload never
    calls reports zero calls and zero time."""

    def stat(name):
        return summary.get(name, {"durations": [], "self_s": 0.0, "attrs": {}})

    def busy(name):
        return sum(stat(name)["durations"])

    def calls(name):
        return len(stat(name)["durations"])

    def attr(name, key):
        return stat(name)["attrs"].get(key, 0)

    def per(name, key, scale):
        n = attr(name, key)
        return busy(name) * scale / n if n else 0.0

    out = {}
    for name in ("parsing.parse_identity", "parsing.parse_product", "parsing.render",
                 "model.signature", "model.evaluate", "identities.verify_identity",
                 "identities.collapse", "oracle.numeric_check",
                 "identities.enumerate_family", "identities.decompose"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("parsing.parse_identity", "parsing.parse_product", "parsing.render"):
        out[f"{name}.p50_us"] = (quantile(stat(name)["durations"], 0.5) * 1e6, "us")
    out["parsing.parse_identity.ns_per_char"] = (per("parsing.parse_identity", "chars", 1e9), "ns")
    for name in ("model.signature", "identities.verify_identity"):
        out[f"{name}.ns_per_factor"] = (per(name, "factors", 1e9), "ns")
    oracle = "oracle.numeric_check"
    trials = attr(oracle, "trials")
    verdicts = attr(oracle, "verdict") or {}
    out[f"{oracle}.trials"] = (trials, "count")
    out[f"{oracle}.ns_per_trial_factor"] = (per(oracle, "trial_factors", 1e9), "ns")
    out[f"{oracle}.skipped_frac"] = (attr(oracle, "skipped") / trials if trials else 0.0, "fraction")
    for verdict in ("pass", "unstable", "fail"):
        out[f"{oracle}.verdict_{verdict}"] = (verdicts.get(verdict, 0), "count")
    for name in ("identities.enumerate_family", "identities.decompose"):
        rows = attr(name, "rows")
        out[f"{name}.rows"] = (rows, "count")
        out[f"{name}.rows_per_s"] = (rows / busy(name) if busy(name) else 0.0, "1/s")
        out[f"{name}.p50_ms"] = (quantile(stat(name)["durations"], 0.5) * 1e3, "ms")
        out[f"{name}.p95_ms"] = (quantile(stat(name)["durations"], 0.95) * 1e3, "ms")
    for name in ("cli.invoke", "cli.main_inproc"):
        out[f"{name}.p50_ms"] = (quantile(stat(name)["durations"], 0.5) * 1e3, "ms")
    out["bench.op.self_s"] = (stat("bench.op")["self_s"], "s")
    return out


# --------------------------------------------------------------------- runs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    geomprod = load_geomprod()
    rng = random.Random(f"{name}:{seed}")
    reqs = workloads.BUILDERS[name](rng)
    defects = {
        "oracle": workloads.oracle_probe(random.Random(f"oracle-probe:{seed}"), geomprod),
        "recursion": workloads.recursion_probe(random.Random(f"recursion-probe:{seed}"), geomprod),
    }
    warm_up(reqs, geomprod)
    gc.collect()
    gc.freeze()  # keep the benchmark's own request objects out of the collector's scans

    if not trace:
        # set-up samples are spread over the run like the operations, so a
        # few slow seconds on the host move their median as little as the rest
        setup = []
        m = measure(reqs, geomprod, NULL, seconds, MIN_PASSES,
                    ((lambda: cold_import(setup), SETUP_REPEATS),))
        metrics = end_to_end(m, statistics.median(setup))
        wall = wall_clock(m)
        attempted, failed = m["attempted"], m["failed"]
    else:
        plain = measure(reqs, geomprod, NULL, seconds / 2)
        tracer = Tracer()
        traced = measure(reqs, geomprod, tracer, seconds / 2)
        cli_attempted, cli_failed = cli_probe(
            random.Random(f"cli:{seed}"), geomprod.cli.main, tracer
        )
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{name}-seed{seed}.jsonl")
        metrics = per_layer(tracer.summary())
        metrics.update(startup_probe())
        wall = wall_clock(plain)
        metrics.update(wall)
        metrics["bench.trace_overhead_frac"] = (trace_overhead(plain, traced), "fraction")
        metrics["defects.oracle_false_fail"] = (defects["oracle"]["fail"], "count")
        metrics["defects.recursion_error"] = (defects["recursion"]["recursion_error"], "count")
        m = plain
        attempted = plain["attempted"] + traced["attempted"] + cli_attempted
        failed = plain["failed"] + traced["failed"] + cli_failed
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": len(m["costs"]), "attempted": attempted, "failed": failed,
        "metrics": metrics, "wall": wall, "defects": defects,
    }


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def report(res: dict) -> None:
    """Readable summary: every metric with its unit, and the sample count."""
    print(
        f"perfbench {res['workload']}: seed={res['seed']} seconds={res['seconds']} "
        f"trace={int(res['trace'])} | closed loop, 1 client | python "
        f"{sys.version.split()[0]}, numpy {numpy_version()}, nproc {os.cpu_count()}"
    )
    n = res["samples"]
    print(
        f"  samples {n} requests, {n - math.ceil(0.95 * n)} beyond p95; "
        f"{res['attempted']} operations, latency of a request = median of its visits; "
        f"1 ref = the reference task's mean time around the operation"
    )
    for key, (value, unit) in res["metrics"].items():
        print(f"  {key:48s} {value:14.6g} {unit}")
    if not res["trace"]:
        for key, (value, unit) in res["wall"].items():
            print(f"  {key:48s} {value:14.6g} {unit}   (not gated: moves with host load)")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':48s} {frac:14.6g} fraction ({res['failed']}/{res['attempted']})")
    oracle, rec = res["defects"]["oracle"], res["defects"]["recursion"]
    print(
        f"  known defects: oracle probe {oracle['fail']} 'fail' of "
        f"{sum(oracle.values())} true identities ({oracle['unstable']} 'unstable'); "
        f"deep enumeration {rec['recursion_error']} RecursionError of {rec['queries']}"
    )


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = []
    for name in workloads.BUILDERS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.BUILDERS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(res)
    print(result_line(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
