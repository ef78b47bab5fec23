"""End-to-end and per-layer benchmark of the usptest CLI.

    python3 bench/run.py --workload single-table --seed 1 --seconds 30 --trace 0

One caller in one process issues a workload's fixed list of CLI calls
through ``usptest.cli.main(argv)``, each after the previous one returns (a
closed loop), and repeats the whole list for ``--seconds``.  Every call's
stdout is captured and checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# set-up is timed in fresh interpreters, one before each timed round, so the
# probes sample the whole run and not one burst of load on a shared machine
SETUP_PROBES_MIN = 5
SETUP_PROBES_MAX = 9
# Machine-speed scaling.  On a shared machine the speed of one core drifts by
# up to 2x over minutes as other tenants load it, which no run length that
# fits the benchmark's budget averages out.  So a fixed calibration loop runs
# before the first call of each round and after every call, and each call's
# time is divided by the mean of the loop's times just before and just after
# it and multiplied by CALIBRATION_REF_S: times are "reference seconds", seconds on a machine
# where the loop takes CALIBRATION_REF_S (about what it takes on an idle
# core of a 2 GHz Xeon).  Raw seconds are kept in the result file.
CALIBRATION_REF_S = 0.004
WARM_UP = ("test", "--dataset", "marital", "--method", "pearson", "--mode", "classic")


def _probe(workload: str, seed: int, input_dir: Path) -> tuple[float, float]:
    """Reference seconds from starting a fresh interpreter to its ready line,
    and its import time in reference seconds."""
    cal = [_calibration_s(), _calibration_s()]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(input_dir)],
        stdout=subprocess.PIPE,
        text=True,
    )
    with proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    cal += [_calibration_s(), _calibration_s()]
    scale = CALIBRATION_REF_S / statistics.mean(cal)
    return (ready - start) * scale, float(line.split()[1]) * scale


def _calibration_s() -> float:
    """Seconds for a fixed loop of the kinds of work the program's hot paths
    do (Python-level calls, small numpy reductions, generator construction
    and hypergeometric and multinomial draws); it never calls the program."""
    a = np.arange(20.0)
    colours = np.array([10, 20, 30, 40])
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    acc = 0.0
    start = time.perf_counter()
    for i in range(800):
        acc += float(np.sum(a * i)) + i % 7
        d = {"k": i, "v": [i, i + 1]}
        acc += len(d["v"])
    for i in range(16):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=(i,))))
        acc += gen.multivariate_hypergeometric(colours, 50, method="marginals")[0]
        acc += gen.multinomial(100, probs)[0]
        acc += float(np.outer(a[:4], a[:5]).sum())
    return time.perf_counter() - start


def _calibration_helper(conn) -> None:
    while conn.recv():
        conn.send(_calibration_s())


class Calibrator:
    """Times the calibration loop on ``width`` cores at once, in this process
    and in ``width - 1`` helper processes, and returns the mean: a call that
    runs on two cores goes at the mean speed of both."""

    def __init__(self, width: int):
        # fork, not spawn: spawn also starts multiprocessing's resource
        # tracker, a process that outlives every join here and exits only
        # after this one does.  Helpers are daemons, so multiprocessing's
        # exit handler ends and reaps any that an error path left behind.
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(width - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._helpers.append((proc, ours))

    def sample(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [_calibration_s()] + [conn.recv() for _, conn in self._helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for proc, conn in self._helpers:
            with contextlib.suppress(OSError):
                conn.send(False)
            conn.close()
            proc.join(10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _call(argv) -> tuple[int, float, str]:
    import usptest.cli  # bound at call time so a traced run sees the wrapped main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = usptest.cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue()


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.raw: list[float] = []  # seconds
        self.raw_cpus: list[float] = []
        self.cal: list[float] = []  # calibration loop, seconds
        self.results: list[tuple[int, str]] = []

    def _scaled(self, values):
        # call i ran between calibration samples i and i+1
        return [
            v * CALIBRATION_REF_S / (0.5 * (before + after))
            for v, before, after in zip(values, self.cal, self.cal[1:])
        ]

    @property
    def times(self) -> list[float]:
        """Per-call wall time in reference seconds."""
        return self._scaled(self.raw)

    @property
    def cpus(self) -> list[float]:
        """Per-call CPU time in reference seconds."""
        return self._scaled(self.raw_cpus)


def _run_rounds(ops, seconds: float, tracer, before_round, calibrator) -> list[Round]:
    """Whole rounds of ``ops`` until ``seconds`` have passed.  With a tracer,
    rounds alternate untraced and traced, at least one of each."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        before_round()
        rnd = Round(traced=tracer is not None and len(rounds) % 2 == 1)
        if tracer is not None:
            tracer.active = rnd.traced
        t0 = time.perf_counter()
        rnd.cal.append(calibrator.sample())
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.call_id = len(rounds) * len(ops) + idx
            cpu0 = _cpu_s()
            rc, elapsed, stdout = _call(op.argv)
            rnd.raw_cpus.append(_cpu_s() - cpu0)
            rnd.raw.append(elapsed)
            rnd.results.append((rc, stdout))
            rnd.cal.append(calibrator.sample())
        rnd.wall = time.perf_counter() - t0
        rounds.append(rnd)
        if tracer is not None:
            tracer.active = False
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            return rounds


def _verdicts(wl, rounds, checker) -> tuple[list[str | None], list[str]]:
    """Per op: None or why its output is wrong.  Outputs of later rounds must
    equal the first round's byte for byte."""
    verdicts = []
    for idx, op in enumerate(wl.ops):
        rc, stdout = rounds[0].results[idx]
        why = checker.check(op.argv, op.table, rc, stdout)
        if why is None and any(r.results[idx] != (rc, stdout) for r in rounds[1:]):
            why = "output differs between rounds"
        verdicts.append(why)
    unexpected = [
        f"{op.name}: {why}" for op, why in zip(wl.ops, verdicts) if why and not op.known_fault
    ]
    return verdicts, unexpected


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _per_call_median(per_round: list[list[float]]) -> list[float]:
    """Each call's median over the rounds; the call list's total is their sum."""
    return [statistics.median(column) for column in zip(*per_round)]


def end_to_end(wl, rounds, setup) -> dict:
    times = _per_call_median([r.times for r in rounds])
    return {
        "setup_s": _metric(statistics.median(s for s, _ in setup), "s"),
        "wall_s": _metric(sum(times), "s"),
        "op_ms_p50": _metric(1e3 * statistics.median(times), "ms"),
        "tables_per_s": _metric(sum(op.tables for op in wl.ops) / sum(times), "1/s"),
        "cpu_s": _metric(sum(_per_call_median([r.cpus for r in rounds])), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }


def per_layer(tracer, rounds, setup, efficiency) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    us, ms = 1e6, 1e3
    return {
        "setup.import_s": _metric(statistics.median(i for _, i in setup), "s"),
        "trace.overhead_s": _metric(
            sum(_per_call_median([r.times for r in traced]))
            - sum(_per_call_median([r.times for r in plain])),
            "s",
        ),
        "cli.self_s": _metric(tracer.layer_self_s("cli", n), "s"),
        "simulate.self_s": _metric(tracer.layer_self_s("simulate", n), "s"),
        "simulate.replicates": _metric(tracer.calls("simulate.replicate", n), "count"),
        "simulate.parallel_efficiency": _metric(efficiency, "ratio"),
        "permutation.self_s": _metric(tracer.layer_self_s("permutation", n), "s"),
        "permutation.permuted_table_us": _metric(us * tracer.mean_s("permutation.permuted_table"), "us"),
        "permutation.permuted_table_calls": _metric(tracer.calls("permutation.permuted_table", n), "count"),
        "permutation.pvalue_ms_b999": _metric(ms * tracer.mean_s("permutation.permutation_pvalue.B999"), "ms"),
        "permutation.pvalue_ms_b99": _metric(ms * tracer.mean_s("permutation.permutation_pvalue.B99"), "ms"),
        "stats.self_s": _metric(tracer.layer_self_s("stats", n), "s"),
        "stats.usp_us": _metric(us * tracer.mean_s("stats.usp_statistic"), "us"),
        "stats.pearson_us": _metric(us * tracer.mean_s("stats.pearson"), "us"),
        "stats.g_us": _metric(us * tracer.mean_s("stats.g"), "us"),
        "stats.dhat_us": _metric(us * tracer.mean_s("stats.dhat_statistic"), "us"),
        "stats.calls": _metric(
            sum(tracer.calls(k, n) for k in ("stats.usp_statistic", "stats.pearson", "stats.g", "stats.dhat_statistic")),
            "count",
        ),
        "table.self_s": _metric(tracer.layer_self_s("table", n), "s"),
        "table.sample_table_us": _metric(us * tracer.mean_s("table.sample_table"), "us"),
        "table.subsample_us": _metric(us * tracer.mean_s("table.subsample"), "us"),
        "table.validate_table_us": _metric(us * tracer.mean_s("table.validate_table"), "us"),
        "numerics.self_s": _metric(tracer.layer_self_s("numerics", n), "s"),
        "numerics.generator_us": _metric(us * tracer.mean_s("numerics.generator"), "us"),
        "numerics.generator_calls": _metric(tracer.calls("numerics.generator", n), "count"),
        "numerics.chi2_cdf_us": _metric(us * tracer.mean_s("numerics.chi2_cdf"), "us"),
        "numerics.chi2_quantile_us": _metric(us * tracer.mean_s("numerics.chi2_quantile"), "us"),
        "numerics.chi2_quantile_calls": _metric(tracer.calls("numerics.chi2_quantile", n), "count"),
        "numerics.poisson_tail_mass_us": _metric(us * tracer.mean_s("numerics.poisson_tail_mass"), "us"),
        "asymptotics.self_s": _metric(tracer.layer_self_s("asymptotics", n), "s"),
        "asymptotics.size_curve_ms": _metric(ms * tracer.mean_s("asymptotics.size_curve"), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "usptest" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'usptest'}", file=sys.stderr)
        return 2
    input_dir = OUT / f"inputs-{args.workload}-{args.seed}"

    setup = [_probe(args.workload, args.seed, input_dir)]

    def probe_setup():
        if len(setup) < SETUP_PROBES_MAX:
            setup.append(_probe(args.workload, args.seed, input_dir))

    sys.path.insert(0, str(SRC))
    import usptest.cli  # noqa: F401
    from usptest.datasets import EYECOLOUR, MARITAL

    import checks
    import reference
    import spans

    # the traced studies run goes at --threads 1 so that every span is in
    # this process; the pool is measured at its boundary by the gate below
    threads = 1 if args.trace else W.STUDY_THREADS
    wl = W.build(args.workload, args.seed, input_dir, threads)
    W.write_inputs(wl, input_dir)
    tables = {**wl.tables, "marital": np.array(MARITAL.table.counts), "eyecolour": np.array(EYECOLOUR.table.counts)}
    checker = checks.Checker(tables, reference.load_references())
    problems = []

    efficiency = 0.0
    if wl.gate is not None:
        rc1, wall1, out1 = _call(wl.gate + ("--threads", "1"))
        rc2, wall2, out2 = _call(wl.gate + ("--threads", "2"))
        if (rc1, out1) != (rc2, out2) or rc1 != 0:
            problems.append("gate: stdout at --threads 1 and --threads 2 differ")
        efficiency = wall1 / (2.0 * wall2)
    _call(WARM_UP)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    calibrator = Calibrator(max(op.threads for op in wl.ops))
    try:
        rounds = _run_rounds(wl.ops, args.seconds, tracer, probe_setup, calibrator)
    finally:
        calibrator.close()
        if tracer is not None:
            tracer.uninstall()
    while len(setup) < SETUP_PROBES_MIN:
        probe_setup()

    verdicts, unexpected = _verdicts(wl, rounds, checker)
    problems += unexpected
    failed_per_round = sum(1 for v in verdicts if v)
    if args.trace:
        metrics = per_layer(tracer, rounds, setup, efficiency)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(wl, rounds, setup)

    for op, why in zip(wl.ops, verdicts):
        if why:
            tag = "known fault" if op.known_fault else "FAILED"
            print(f"{tag}: {op.name}: {why}")
    for p in problems:
        print(f"problem: {p}")
    print("round walls (s):", " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in rounds))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": len(wl.ops) * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    detail = {
        "ops": [op.name for op in wl.ops],
        "rounds": [
            {"traced": r.traced, "wall": r.wall, "raw": r.raw, "raw_cpus": r.raw_cpus, "cal": r.cal}
            for r in rounds
        ],
        "setup": setup,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **detail}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
