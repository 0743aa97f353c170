"""Child process that runs the program in-process for the benchmark.

    python3 perfbench/worker.py setup D [D ...]   import qeuler, build the groups, print "ready"
    python3 perfbench/worker.py library < job      time one round of library calls
    python3 perfbench/worker.py trace < job        run a round under the tracer, round after round

A job is one JSON object on stdin; the result is one JSON line on stdout.
The program is imported from PYTHONPATH, which the benchmark points at the
checkout's src directory.  This file imports nothing of the benchmark but
the tracer, so the reference never shares the program's process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _setup(moduli: list[int]) -> None:
    import qeuler

    for d in moduli:
        qeuler.build_character_group(d)
    print("ready", flush=True)


def _groups(qeuler, ops):
    return {d: qeuler.build_character_group(d) for d in sorted({op["d"] for op in ops})}


def _call(qeuler, groups, op):
    """One library value, or the refusal the program raised instead."""
    chi = groups[op["d"]][op["chi"]]
    try:
        ctx = qeuler.QContext(op["q"])
        if op["kind"] == "qeuler":
            value = qeuler.qeuler_value(chi, op["r"], op["n"], op["x"], ctx)
        else:
            value = qeuler.lfun_value(chi, op["r"], complex(*op["s"]), op["x"], ctx)
    except qeuler.QEulerError as exc:
        return {"error": type(exc).__name__}
    return [value.real, value.imag]


def _cutoffs(qeuler, groups, ops):
    """Each op's certified cutoff M (None where planning is refused)."""
    out = []
    for op in ops:
        chi = groups[op["d"]][op["chi"]]
        try:
            ctx = qeuler.QContext(op["q"])
            if op["kind"] == "qeuler":
                spec = qeuler.QEulerSpec.create(chi, op["r"], op["n"], op["x"], ctx)
            else:
                spec = qeuler.LfunSpec.create(chi, op["r"], complex(*op["s"]), op["x"], ctx)
            out.append(spec.plan.cutoff_M)
        except qeuler.QEulerError:
            out.append(None)
    return out


# Warm-up calls on inputs that no workload uses, so that one-time costs of a
# fresh process (first numpy calls) stay out of the timed round without
# filling any cache the timed calls could hit.
WARM_UP = ({"kind": "qeuler", "d": 3, "chi": 1, "r": 2, "q": 0.5, "n": 3, "x": 0.3},
           {"kind": "lfun", "d": 3, "chi": 1, "r": 2, "q": 0.5, "s": [0.3, 0.1], "x": 0.3})


def _library(job: dict) -> dict:
    """One timed round of library calls, with each op's seconds and value."""
    import qeuler

    ops, plan_ops = job["ops"], job["ops"] + job.get("plan_ops", [])
    groups = _groups(qeuler, plan_ops + list(WARM_UP))
    for op in WARM_UP:
        _call(qeuler, groups, op)
    times, values = [], []
    for op in ops:
        t0 = time.perf_counter()
        values.append(_call(qeuler, groups, op))
        times.append(time.perf_counter() - t0)
    return {"times": times, "values": values,
            "cutoffs": _cutoffs(qeuler, groups, plan_ops) if job.get("cutoffs") else None}


def _cli(qeuler, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qeuler.cli.main(list(argv))
    return {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _trace(job: dict) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import qeuler
    import qeuler.cli

    ops, argvs = job["ops"], job["argvs"]
    groups = _groups(qeuler, ops + job.get("plan_ops", []))
    tracer.take()  # drop the group builds above: they belong to no round
    totals, first, stable, rounds = None, None, True, 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < job["seconds"]:
        values = [_call(qeuler, groups, op) for op in ops]
        tracer.new_scope()  # one process making library calls is one scope
        outputs = []
        for argv in argvs:
            outputs.append(_cli(qeuler, argv))
            tracer.new_scope()  # each CLI call is its own process for users
        raw = tracer.take()
        totals = raw if totals is None else {k: totals.get(k, 0) + raw.get(k, 0)
                                             for k in totals.keys() | raw.keys()}
        if first is None:
            first = {"values": values, "outputs": outputs}
        stable = stable and first == {"values": values, "outputs": outputs}
        rounds += 1
    return {"rounds": rounds, "totals": totals, "stable": stable, **first,
            "cutoffs": _cutoffs(qeuler, groups, ops + job.get("plan_ops", []))}


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        _setup([int(d) for d in sys.argv[2:]])
        return 0
    job = json.loads(sys.stdin.read())
    result = _library(job) if mode == "library" else _trace(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
