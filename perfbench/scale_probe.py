"""Report-only scale probe: how large an ``m`` each learner trains within a
wall-clock budget.  It is not a benchmark workload and gates nothing.

    python3 perfbench/scale_probe.py --budget 120 --seed 1

Every case (learner, m) runs ``miml synth`` and ``miml train`` in a child
process that is killed once the budget has passed.  A case reads as its
training seconds, ``timeout``, or ``error: <exception class>``.  After a
timeout the learner's larger sizes are not tried.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (25, 50, 100, 200)
# T=3, d=4 as in the roadmap's scaling table; SubCod needs single-label
# data (T=2) and InsDif single-instance data
SHAPES = {
    "mimlboost": "T=3 d=4 n_min=1 n_max=4",
    "mimlsvm": "T=3 d=4 n_min=1 n_max=4",
    "dmimlsvm": "T=3 d=4 n_min=1 n_max=4",
    "insdif": "T=3 d=4 n_min=1 n_max=1 single_instance=1",
    "subcod": "T=2 d=4 n_min=2 n_max=6",
}


def child(algo: str, m: int, seed: int, directory: Path) -> None:
    """Train one case and print its outcome as JSON."""
    import io

    sys.path.insert(0, str(ROOT / "src"))
    from miml import cli

    raised = []
    fit = cli.fit_with_config

    def recording_fit(*args, **kwargs):
        try:
            return fit(*args, **kwargs)
        except Exception as exc:  # note the class; cli.run maps it to an exit code
            raised.append(type(exc).__name__)
            raise

    cli.fit_with_config = recording_fit
    spec = directory / "spec.cfg"
    spec.write_text("\n".join(SHAPES[algo].split() + [f"m={m}", f"seed={seed}"]) + "\n")
    data, model = directory / "data.miml", directory / "m.model"
    sink = io.StringIO()
    if cli.run(["synth", "--spec", str(spec), "--out", str(data)], out=sink) != 0:
        print(json.dumps({"outcome": "error: synth failed"}))
        return
    t0 = time.perf_counter()
    rc = cli.run(["train", "--algo", algo, "--data", str(data), "--model", str(model)], out=sink)
    seconds = time.perf_counter() - t0
    if rc == 0:
        print(json.dumps({"outcome": seconds}))
    else:
        print(json.dumps({"outcome": f"error: {raised[-1] if raised else f'exit {rc}'}"}))


def probe(algo: str, m: int, seed: int, budget: float, work: Path):
    directory = work / f"{algo}-{m}"
    directory.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MIML_THREADS="1")
    try:
        p = subprocess.run([sys.executable, __file__, "--child", algo, str(m), str(seed),
                            str(directory)], capture_output=True, text=True,
                           timeout=budget, env=env)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return "timeout"
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        tail = p.stderr.strip().splitlines()
        return f"error: {tail[-1] if tail else f'exit {p.returncode}'}"
    return json.loads(lines[-1])["outcome"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--budget", type=float, default=120.0, help="seconds per case")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        algo, m, seed, directory = args.child
        child(algo, int(m), int(seed), Path(directory))
        return 0

    work = ROOT / ".perfbench_work" / f"probe-{os.getpid()}"
    try:
        for algo in SHAPES:
            for m in SIZES:
                outcome = probe(algo, m, args.seed, args.budget, work)
                shown = f"{outcome:.3f} s" if isinstance(outcome, float) else outcome
                print(f"{algo} m={m}: {shown}", flush=True)
                if outcome == "timeout":
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
