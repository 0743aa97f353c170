"""Benchmark of qeuler: verify sweeps and deep single-point evaluation.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.  Each
workload prints one JSON line, {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics of an untraced run, with --trace 1 the
per-layer metrics of a traced run.  Problems found by the checks go to
stderr.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from reference import CHECK_DPS, Reference, check_group, matches, root_exponents  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SETUP_PROBES = 5  # before the first round; one more follows every round
# The calibration job's median duration at the reference speed: the median
# of 15 runs on the development machine (2 vCPUs) while it ran fast.
CALIBRATION_S = 0.19
CHILD_TIMEOUT = 150


class Bench:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("QEULER_THREADS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.problems: list[str] = []
        self.ref = Reference()
        self.chars: dict = {}
        self.char_values: dict = {}
        self.calibration: list[float] = []
        self.peaks_kb: list[int] = []

    # -- processes ------------------------------------------------------------

    def _reap(self, proc) -> int:
        """Wait for a process that runs the program; note its peak memory.

        The peak is the process's own (os.wait4), so the calibration job
        never counts.  It includes what the process inherited from this one
        before exec, so this process keeps numpy out until the timed rounds
        are over and stays smaller than any program process."""
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peaks_kb.append(usage.ru_maxrss)
        return proc.returncode

    def _run(self, cmd, stdin_text=None, stderr=subprocess.DEVNULL):
        """Run a program process to its end: (seconds, exit code, stdout)."""
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=stderr)
        try:
            if stdin_text is not None:
                proc.stdin.write(stdin_text)
                proc.stdin.close()
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = self._reap(proc)
        return time.perf_counter() - start, rc, out

    def peak_mb(self) -> float:
        return max(self.peaks_kb) / 1024.0

    def cli(self, argv):
        """One qeuler command as users run it: (seconds, exit code, stdout)."""
        return self._run([sys.executable, "-m", "qeuler", *argv])

    def worker(self, mode, job):
        _, rc, out = self._run([sys.executable, str(HERE / "worker.py"), mode],
                               stdin_text=json.dumps(job), stderr=None)
        if rc != 0:
            raise RuntimeError(f"worker {mode} failed with exit {rc}")
        return json.loads(out.splitlines()[-1])

    def calibrate(self) -> None:
        """Time the fixed calibration job once (calibrate.py)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "calibrate.py")], cwd=self.root,
                       env=self.env, check=True, timeout=CHILD_TIMEOUT)
        self.calibration.append(time.perf_counter() - start)

    def setup_probes(self, moduli, count=1) -> list[float]:
        """Set-up probes, each followed by a run of the calibration job."""
        out = []
        for _ in range(count):
            out.append(self.setup_probe(moduli))
            self.calibrate()
        return out

    def setup_probe(self, moduli) -> float:
        """Seconds from starting an interpreter until qeuler is imported and
        the workload's character groups are built."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "setup",
                                 *map(str, moduli)], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if self._reap(proc) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
        return elapsed

    # -- checks ---------------------------------------------------------------

    def load_characters(self, moduli):
        """The program's character tables, checked by the properties of a group."""
        for d in moduli:
            _, rc, out = self.cli(["char-list", "--d", str(d), "--output", "json"])
            rows = [[complex(*v) for v in json.loads(line)["values"]]
                    for line in out.splitlines()] if rc == 0 else []
            self.problems += check_group(d, rows) if rows else [f"char-list --d {d} exit {rc}"]
            for label, vals in enumerate(rows):
                self.chars[(d, label)] = (d, root_exponents(d, vals))
                self.char_values[(d, label)] = vals

    def check_verify_call(self, call, outputs):
        """Classify the instances of one verify call; returns (attempted, failed)."""
        argv = call["argv"]
        params = checks.parse_argv(argv)
        d = int(params["d"])
        group_size = W.GROUP_SIZES[d]
        rc, stdout = outputs[0]
        if any(o != outputs[0] for o in outputs[1:]):
            self.problems.append(f"{' '.join(argv)}: output differs between repeats")
        records, verdicts, problems = checks.check_verify(argv, rc, stdout, group_size)
        fault = call["fault"]
        self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        if rc not in (0, 1, 3) or (rc == 3 and fault is None):
            self.problems.append(f"{' '.join(argv)}: exit {rc}")
        if not records:
            return len(verdicts), 0 if rc == 3 and fault else len(verdicts)
        failed = set()
        for i, ok in enumerate(verdicts):
            if not ok:
                failed.add(i)
        every = fault is not None
        for i in checks.sample_indices(argv, len(records), self.seed, every):
            misses, own = checks.check_sides(self.ref, self.chars, params["identity"],
                                             records[i])
            self.problems += own
            if misses and fault is not None:
                failed.add(i)  # PASS without matching sides is a failure of the fault
            else:
                self.problems += misses
        if failed and fault is None:
            self.problems.append(f"{' '.join(argv)}: {len(failed)} unexplained FAIL(s)")
        return len(verdicts), len(failed)

    def check_value(self, op, value, cutoff) -> bool:
        """True when a value op failed in a way the F1 rule explains; records
        a problem for any other failure."""
        want = checks.reference_value(self.ref, self.chars, op)
        if isinstance(value, list) and matches(complex(*value), want):
            return False
        flagged = op["kind"] != "powersum" and cutoff is not None and \
            checks.double_precision_insufficient(op, self.char_values[(op["d"], op["chi"])],
                                                 cutoff, want)
        refused = isinstance(value, dict)
        if refused and (flagged or op.get("fault")):
            return False  # a refusal in the F1 regime is the correct answer
        if not flagged:
            self.problems.append(f"{op}: {value} misses reference {complex(want)}")
        return True

    def reference_self_check(self, sample_ops=()):
        """The reference against itself: its series l(-4, x) equals its closed
        form E_4(x), and values agree at two precisions (the closed form at
        q = 0.97, n = 20 cancels the most)."""
        d, label = max(self.chars)
        chi = self.chars[(d, label)]
        e = self.ref.qeuler(chi, 2, 4, 0.75, 0.9)
        if not matches(complex(self.ref.lfun(chi, 2, -4, 0.75, 0.9)), e, 1e-20):
            self.problems.append("reference: l(-4, x) differs from E_4(x)")
        fine = Reference(CHECK_DPS)
        deepest = {"kind": "qeuler", "d": d, "chi": label, "r": 3, "n": 20, "x": 0.5, "q": 0.97}
        for op in (deepest, *sample_ops):
            a = checks.reference_value(self.ref, self.chars, op)
            b = checks.reference_value(fine, self.chars, op)
            if not matches(complex(a), b, 1e-20):
                self.problems.append(f"reference: precisions disagree on {op}")


def run_sweep(bench: Bench, name: str, seconds: float, trace: bool) -> dict:
    calls = W.symmetry_calls(bench.seed) if name == "sweep-symmetry" else W.degree_calls(bench.seed)
    moduli = W.SETUP_MODULI[name]
    if trace:
        traced = bench.worker("trace", {"ops": [], "argvs": [c["argv"] for c in calls],
                                        "seconds": seconds})
        rounds = traced["rounds"]
        outputs = [[(o["rc"], o["stdout"])] for o in traced["outputs"]]
        for call, out in zip(calls, outputs):
            _, rc, stdout = bench.cli(call["argv"])
            if (rc, stdout) != out[0]:
                bench.problems.append(f"{' '.join(call['argv'])}: traced output differs")
        if not traced["stable"]:
            bench.problems.append("traced outputs differ between rounds")
    else:
        times, outputs = [[] for _ in calls], [[] for _ in calls]
        setup = bench.setup_probes(moduli, SETUP_PROBES)
        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            for i, call in enumerate(calls):
                t, rc, stdout = bench.cli(call["argv"])
                times[i].append(t)
                outputs[i].append((rc, stdout))
                bench.calibrate()
            setup += bench.setup_probes(moduli)
            rounds += 1
        peak_mb = bench.peak_mb()

    bench.load_characters(moduli)
    attempted = failed = 0
    per_call = []
    for call, out in zip(calls, outputs):
        a, f = bench.check_verify_call(call, out)
        per_call.append(a)
        attempted += a * rounds
        failed += f * rounds
    bench.reference_self_check()
    if trace:
        return _result(bench, attempted, failed, layer_metrics(traced["totals"], rounds))
    # each call's median over the rounds stands for that call, and each of
    # its instances takes an equal share of it
    call_s = [statistics.median(ts) for ts in times]
    per_instance_ms = [1000.0 * t / n for t, n in zip(call_s, per_call) for _ in range(n)]
    metrics = _end_to_end(bench, setup, sum(per_call) / sum(call_s),
                          statistics.median(call_s), per_instance_ms, peak_mb)
    return _result(bench, attempted, failed, metrics)


def run_deep(bench: Bench, seconds: float, trace: bool) -> dict:
    ops = W.deep_ops(bench.seed)
    cli_ops = W.deep_cli_ops(bench.seed)
    value_cli = [op for op in cli_ops if op["kind"] in ("qeuler", "lfun")]
    job = {"ops": ops, "plan_ops": value_cli}
    moduli = W.SETUP_MODULI["eval-deep"]
    if trace:
        traced = bench.worker("trace", job | {"argvs": [op["argv"] for op in cli_ops],
                                              "seconds": seconds})
        rounds = traced["rounds"]
        values, cutoffs = traced["values"], traced["cutoffs"]
        cli_out = [[(o["rc"], o["stdout"])] for o in traced["outputs"]]
        plain = bench.worker("library", job)
        if plain["values"] != values:
            bench.problems.append("traced library values differ from untraced ones")
        for op, out in zip(cli_ops, cli_out):
            _, rc, stdout = bench.cli(op["argv"])
            if (rc, stdout) != out[0]:
                bench.problems.append(f"{' '.join(op['argv'])}: traced output differs")
        if not traced["stable"]:
            bench.problems.append("traced outputs differ between rounds")
    else:
        # a round = one worker process timing the library calls once, then
        # each CLI op once and a set-up probe; alternating them spreads both
        # over the whole run, so a slow or fast spell of the machine weighs
        # on every metric alike
        cli_out = [[] for _ in cli_ops]
        cli_times = [[] for _ in cli_ops]
        lib_times = []
        setup = bench.setup_probes(moduli, SETUP_PROBES)
        start = time.perf_counter()
        while not lib_times or time.perf_counter() - start < seconds:
            lib = bench.worker("library", job | {"cutoffs": not lib_times})
            if not lib_times:
                values, cutoffs = lib["values"], lib["cutoffs"]
            elif lib["values"] != values:
                bench.problems.append("library values differ between rounds")
            lib_times.append(lib["times"])
            bench.calibrate()
            for i, op in enumerate(cli_ops):
                t, rc, stdout = bench.cli(op["argv"])
                cli_times[i].append(t)
                cli_out[i].append((rc, stdout))
                bench.calibrate()
            setup += bench.setup_probes(moduli)
        rounds = len(lib_times)
        peak_mb = bench.peak_mb()

    bench.load_characters(moduli)
    failed = sum(bench.check_value(op, v, m) for op, v, m in zip(ops, values, cutoffs))
    cli_cutoffs = iter(cutoffs[len(ops):])
    attempted = len(ops)
    for op, out in zip(cli_ops, cli_out):
        if op["kind"] == "verify":
            a, f = bench.check_verify_call(op, out)
        else:
            a, f = 1, _check_eval_call(bench, op, out,
                                       next(cli_cutoffs) if op["kind"] != "powersum" else None)
        attempted += a
        failed += f
    bench.reference_self_check([op for op in ops if op["kind"] == "qeuler"][:2])
    attempted, failed = attempted * rounds, failed * rounds
    if trace:
        return _result(bench, attempted, failed, layer_metrics(traced["totals"], rounds))
    # each op's median over the rounds stands for that op
    op_s = [statistics.median(ts) for ts in zip(*lib_times)]
    eval_times = [t for op, ts in zip(cli_ops, cli_times) if op["kind"] != "verify" for t in ts]
    metrics = _end_to_end(bench, setup, len(ops) / sum(op_s), statistics.median(eval_times),
                          [1000.0 * t for t in op_s], peak_mb)
    return _result(bench, attempted, failed, metrics)


def _check_eval_call(bench, op, outputs, cutoff) -> int:
    rc, stdout = outputs[0]
    if any(o != outputs[0] for o in outputs[1:]):
        bench.problems.append(f"{' '.join(op['argv'])}: output differs between repeats")
    if rc == 3:
        value = {"error": "refused"}
    elif rc == 0:
        record = json.loads(stdout)
        value = record["value"]
        if record["command"] != op["argv"][0]:
            bench.problems.append(f"{' '.join(op['argv'])}: wrong command in record")
    else:
        bench.problems.append(f"{' '.join(op['argv'])}: exit {rc}")
        return 1
    return int(bench.check_value(op, value, cutoff))


def _end_to_end(bench, setup, ops_per_s, call_s_p50, op_ms, peak_mb) -> dict:
    """The end-to-end metrics, with every timing at the reference speed.

    The shared host's speed drifts by tens of percent over minutes, alike for
    the program and for the calibration job timed between its calls; the
    ratio of the two stays put.  So each time is multiplied, and each rate
    divided, by CALIBRATION_S over the job's median time in this run.  The
    times as measured go to stderr."""
    quantiles = statistics.quantiles(op_ms, n=20, method="inclusive")
    measured = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "call_s_p50": (call_s_p50, "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p95": (quantiles[18], "ms"),
    }
    calibration = statistics.median(bench.calibration)
    scale = CALIBRATION_S / calibration
    print(f"measured: calibration job {calibration:.4f} s (median of "
          f"{len(bench.calibration)}), " + ", ".join(f"{k} {v:.6g} {u}"
                                                       for k, (v, u) in measured.items()),
          file=sys.stderr)
    values = {k: (v / scale if u == "1/s" else v * scale, u)
              for k, (v, u) in measured.items()}
    values["peak_rss_mb"] = (peak_mb, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _result(bench, attempted, failed, metrics) -> dict:
    for p in bench.problems:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not bench.problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qeuler" / "__init__.py").is_file():
        print("error: run from the root of a qeuler checkout (no src/qeuler here)",
              file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        bench = Bench(root, args.seed)
        if name == "eval-deep":
            result = run_deep(bench, args.seconds, bool(args.trace))
        else:
            result = run_sweep(bench, name, args.seconds, bool(args.trace))
        if len(names) > 1:
            result = {"workload": name} | result
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
