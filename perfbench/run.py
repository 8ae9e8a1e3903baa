"""Benchmark command: run one workload and print its metrics.

    python3 perfbench/run.py --workload rshm-cluster --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass.  Untraced, it
repeats the workload until ``--seconds`` have passed, at least once, and
reports the median solve time.  Every answer goes through the checks in ``check.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed`` sets the order in which a workload's instances are solved; the
instances themselves are fixed by the workload (``--instance-seed``
replaces their seeds), so every seed measures the same work.

Exit codes: 0 a result was printed; 2 the program's sources are missing or
the arguments are wrong; 3 answers that must repeat did not (the
determinism guard), with the workload named on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

# One process, no extra threads: pin the numeric libraries before import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONDETERMINISTIC = 3

END_TO_END = {"solve_s": "s", "setup_s": "s", "fuel": "fuel_units",
              "saving_pct": "%", "peak_rss_mb": "MiB"}


class NondeterministicRun(Exception):
    """Answers that must repeat differed between passes or runs."""


def environment() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg_start": os.getloadavg()}


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources.  Stored answers
    are keyed by it, so a run is compared only with earlier runs of the same
    code, and a change that alters the answers on purpose starts afresh."""
    h = hashlib.sha256()
    files = [*(SRC / "platoonopt").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(files):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _guard(name: str, passes, state_file: Path | None) -> list:
    """Fingerprints of every pass must match each other and the ones an
    earlier run of the same code in this checkout stored."""
    prints = [[o.fingerprint for o in p.outcomes] for p in passes]
    if any(fp != prints[0] for fp in prints[1:]):
        raise NondeterministicRun(f"{name}: passes of one run disagree")
    if state_file is None:
        return prints[0]
    if state_file.exists():
        stored = json.loads(state_file.read_text(encoding="utf-8"))
        if stored != json.loads(json.dumps(prints[0])):
            raise NondeterministicRun(
                f"{name}: answers differ from an earlier run ({state_file})")
    else:
        state_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(prints[0]), encoding="utf-8")
        os.replace(tmp, state_file)
    return prints[0]


def run(w, seed: int, seconds: float, trace: bool,
        state_dir: Path | None = STATE_DIR) -> tuple[dict, dict]:
    """Run workload ``w``; returns (result, record)."""
    from perfbench import workloads
    from perfbench.hostspeed import REF_KERNEL_S, SpeedSampler
    from perfbench.trace import Tracer, unit_of

    env = environment()
    rng = random.Random(seed)
    passes = []
    tracer = None
    with contextlib.ExitStack() as stack:
        # Untraced runs report times adjusted to the reference host speed;
        # the traced pass keeps raw times, so its spans add up.
        sampler = None if trace else stack.enter_context(SpeedSampler())
        t_setup = time.perf_counter()
        setup_windows, inputs = workloads.setup(w)
        setup_each = (sampler.adjust(setup_windows, t_setup) if sampler
                      else [t1 - t0 for t0, t1 in setup_windows])
        kernel_ms = {"reference": 1e3 * REF_KERNEL_S,
                     "setup": 1e3 * sampler.kernel_s(t_setup)} if sampler else None
        t_solve = time.perf_counter()
        if trace:
            with Tracer() as tracer:
                passes.append(workloads.run_pass(w, inputs, rng))
        else:
            deadline = t_solve + seconds
            while True:
                passes.append(workloads.run_pass(w, inputs, rng))
                if (any(o.problems for o in passes[-1].outcomes)
                        or time.perf_counter() >= deadline):
                    break
        solve_each = [sum(sampler.adjust(p.windows, t_solve)) if sampler
                      else p.wall_s for p in passes]
        if sampler:
            kernel_ms["solve"] = 1e3 * sampler.kernel_s(t_solve)
    setup_s = statistics.median(setup_each)
    solve_s = statistics.median(solve_each)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["loadavg_end"] = os.getloadavg()

    outcomes = [o for p in passes for o in p.outcomes]
    problems = [f"instance seed {o.instance_seed}: {msg}"
                for o in outcomes for msg in o.problems]
    n_failed = sum(1 for o in outcomes if o.problems)
    fingerprints = None
    if not problems:
        seeds = "_".join(map(str, w.instance_seeds))
        name = f"{w.name}-{seeds}-{source_digest()}.json"
        fingerprints = _guard(w.name, passes,
                              state_dir / name if state_dir else None)

    first = passes[0].outcomes
    if not trace:
        fuel = saving_pct = None
        if all(o.fuel is not None for o in first):
            fuel = sum(o.fuel for o in first)
            baseline = sum(o.baseline for o in first)
            saving_pct = 100.0 * (baseline - fuel) / baseline
        metrics = {"solve_s": solve_s, "setup_s": setup_s, "fuel": fuel,
                   "saving_pct": saving_pct, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = \
            100.0 * tracer.overhead_s / (solve_s - tracer.overhead_s)
        metrics["trace.unattributed_s"] = solve_s - tracer.self_time()
        units = {name: unit_of(name) for name in metrics}
    result = {"correct": not problems, "attempted": len(outcomes),
              "failed": n_failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"workload": w.name, "seed": seed,
              "instance_seeds": list(w.instance_seeds),
              "traced": trace, "solve_s_each": solve_each,
              "solve_wall_s_each": [p.wall_s for p in passes],
              "setup_wall_s": statistics.median(t1 - t0
                                                for t0, t1 in setup_windows),
              "kernel_ms": kernel_ms,
              "failed_pct": 100.0 * n_failed / max(1, len(outcomes)),
              "outputs": fingerprints, "problems": problems,
              "missing_probes": tracer.missing if tracer else [],
              "env": env}
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seed", type=int,
                   help="first instance seed (default: the workload's own)")
    try:
        args = p.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if not (SRC / "platoonopt" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return EXIT_USAGE
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return EXIT_USAGE
    w = WORKLOADS[args.workload]
    if args.instance_seed is not None:
        w = w.with_instance_seed(args.instance_seed)
    try:
        result, record = run(w, args.seed, args.seconds, bool(args.trace))
    except NondeterministicRun as exc:
        print(f"error: nondeterministic workload {exc}", file=sys.stderr)
        return EXIT_NONDETERMINISTIC
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_pct {record['failed_pct']} %")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
