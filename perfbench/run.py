"""Benchmark of the ``miml`` command line: ``miml train`` wall time and
``miml eval`` throughput on one workload, with correctness checks.

    python3 perfbench/run.py --workload bagdist --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``miml`` from
``src/`` and needs no build.  Set-up writes the workload's ``miml/1`` files
with ``miml synth`` (three times, into fresh directories, reporting the
median).  An untimed warm-up trains and evaluates each learner once.  The
timed part drives the toolkit the way a user does, through
``miml.cli.run([...])`` in this process: one ``miml train`` per training
file, each round followed by ``miml eval`` of the new models on held-out
files, then more eval passes while they fit in ``--seconds``.  Every
invocation must exit 0, every model must beat the label-prior baseline on
its test file, and retraining from the same file must write the same
model bytes.

``--trace 0`` prints the end-to-end metrics: ``train_s`` is the geometric
mean over the workload's learners of each learner's median ``miml train``
seconds, and ``eval_bags_per_s`` the geometric mean of each learner's
median test bags per second of ``miml eval``.  The geometric mean weighs
every learner alike: SubCod's fit time alone varies 4x between files of
one size, and a plain sum would let it drown the others.  ``--trace 1``
runs the timed part untraced, traced (see ``layers.py``) and untraced
again, checks that all three write the same model bytes, and prints the
per-layer metrics, each learner's own train and eval figures and the
tracing overhead.  Metric names, units and directions come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

BLAS and ``MIML_THREADS`` are pinned to one thread: the fits are serial,
and on a shared machine a second BLAS thread only adds noise.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MIML_THREADS")
SETUP_REPEATS = 3


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


class Invoker:
    """Runs in-process ``miml`` commands and keeps the failure account.

    A failure is an invocation that exits non-zero or raises, or whose
    output fails a check later; each is counted once and never retried."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.busy = 0.0          # seconds spent inside invocations
        self.failures = {}       # invocation number -> reason
        self.writer = {}         # path a command wrote -> (number, argv)

    def __call__(self, argv):
        """Returns (invocation number, ok, seconds, stdout)."""
        self.attempted += 1
        number = self.attempted
        for flag in ("--out", "--model"):
            if argv[0] in ("synth", "train") and flag in argv:
                self.writer[argv[argv.index(flag) + 1]] = (number, argv)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if self.tracer is None:
                    rc = self.cli.run(argv, out=out)
                else:
                    rc = self.tracer.call("cli", self.cli.run, argv, out=out)
        except Exception as exc:  # the CLI let an error escape: record it, keep running
            seconds = time.perf_counter() - t0
            self.busy += seconds
            last = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.fail(number, argv, f"uncaught {last}")
            return number, False, seconds, out.getvalue()
        seconds = time.perf_counter() - t0
        self.busy += seconds
        if rc != 0:
            first = err.getvalue().partition("\n")[0]
            self.fail(number, argv, f"exit {rc}: {first}")
        return number, rc == 0, seconds, out.getvalue()

    def fail(self, number, argv, reason):
        if number not in self.failures:
            self.failures[number] = f"miml {' '.join(argv)}: {reason}"


def file_seed(seed: int, job: int, k: int) -> int:
    return seed * 1000 + 100 * job + k


class Files:
    """Paths of one set-up's files; ``k == -1`` is a job's test file."""

    def __init__(self, directory: Path):
        self.directory = directory

    def data(self, algo, k):
        return self.directory / (f"{algo}-test.miml" if k < 0 else f"{algo}-train{k}.miml")

    def model(self, tag, algo, k):
        return self.directory / f"{tag}-{algo}-{k}.model"


def set_up(invoke, wl, seed, directory: Path) -> Files:
    directory.mkdir(parents=True)
    files = Files(directory)
    for j, job in enumerate(wl.jobs):
        for k in (*range(wl.train_files), -1):
            m = job.test_m if k < 0 else job.m
            spec = directory / f"{job.algo}-{k}.cfg"
            keys = (*job.shape, ("m", m), ("seed", file_seed(seed, j, 99 if k < 0 else k)))
            spec.write_text("".join(f"{key}={value}\n" for key, value in keys))
            invoke(["synth", "--spec", str(spec), "--out", str(files.data(job.algo, k))])
    return files


def evaluate(invoke, wl, files, tag, models, outputs, rates):
    """``miml eval`` of each learner's models ``models`` on its test file;
    appends each successful invocation's test bags per second to ``rates``."""
    for k in models:
        for job in wl.jobs:
            argv = ["eval", "--model", str(files.model(tag, job.algo, k)),
                    "--data", str(files.data(job.algo, -1))]
            number, ok, s, text = invoke(argv)
            if ok:
                rates[job.algo].append(job.test_m / s)
                outputs.setdefault((job.algo, k), []).append((number, argv, text))


def warm_up(invoke, wl, files, outputs):
    """Train every learner on its first file into the ``again`` models and
    evaluate them, untimed.  Lazy imports and first calls stay out of the
    timed part, and the timed part's first models must repeat these bytes."""
    for job in wl.jobs:
        invoke(["train", "--algo", job.algo, "--data", str(files.data(job.algo, 0)),
                "--model", str(files.model("again", job.algo, 0))])
    evaluate(invoke, wl, files, "again", (0,), outputs, {job.algo: [] for job in wl.jobs})


def timed_part(invoke, wl, files, tag, outputs, deadline):
    """Round k trains every learner on its file k and then evaluates the new
    models, so every model is evaluated and checked once and eval samples
    spread over the whole run; further eval passes over the first
    ``wl.eval_models`` models follow while one more fits before
    ``deadline``.

    Returns the seconds of every successful ``miml train`` and the bags per
    second of every successful ``miml eval``, per learner."""
    seconds = {job.algo: [] for job in wl.jobs}
    rates = {job.algo: [] for job in wl.jobs}
    for k in range(wl.train_files):
        for job in wl.jobs:
            _, ok, s, _ = invoke(["train", "--algo", job.algo,
                                  "--data", str(files.data(job.algo, k)),
                                  "--model", str(files.model(tag, job.algo, k))])
            if ok:
                seconds[job.algo].append(s)
        evaluate(invoke, wl, files, tag, (k,), outputs, rates)
    last = 0.0
    while time.perf_counter() + last < deadline:
        t0 = time.perf_counter()
        evaluate(invoke, wl, files, tag, range(wl.eval_models), outputs, rates)
        last = time.perf_counter() - t0
    return seconds, rates


def criterion(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + "="):
            return float(line[len(name) + 1:])
    raise ValueError(f"no {name}= line in miml eval output")


def check_against_prior(invoke, wl, files, outputs):
    """Each model's rloss and aveprec must beat the label-prior baseline
    trained on the same file, and repeated evals must print the same text."""
    from miml import bench, dataio, metrics

    lines = []
    for job in wl.jobs:
        test = dataio.parse_dataset(files.data(job.algo, -1).read_text(encoding="utf-8"))
        for k in range(wl.train_files):
            runs = outputs.get((job.algo, k), [])
            if not runs:
                continue
            train = dataio.parse_dataset(files.data(job.algo, k).read_text(encoding="utf-8"))
            prior = bench.fit_prior(train)
            base = metrics.compute_report([prior.predict(b) for b in test.bags()],
                                          test.label_sets(), test.T)
            first = runs[0][2]
            for i, (number, argv, text) in enumerate(runs):
                if text != first:
                    invoke.fail(number, argv, "check: eval output differs from the first pass")
                try:
                    rloss, aveprec = criterion(text, "rloss"), criterion(text, "aveprec")
                except ValueError as exc:
                    invoke.fail(number, argv, f"check: {exc}")
                    continue
                if not (rloss < base.ranking_loss and aveprec > base.avg_precision):
                    invoke.fail(number, argv, f"check: rloss {rloss:.4f} / aveprec {aveprec:.4f} "
                                f"do not beat the prior's {base.ranking_loss:.4f} / "
                                f"{base.avg_precision:.4f}")
                if i == 0:
                    lines.append(f"check {job.algo}[{k}]: rloss {rloss:.4f} (prior "
                                 f"{base.ranking_loss:.4f}), aveprec {aveprec:.4f} "
                                 f"(prior {base.avg_precision:.4f})")
    return lines


def same_bytes(invoke, a: Path, b: Path, what):
    """``b`` must hold the bytes of ``a``; otherwise the command that wrote
    ``b`` failed."""
    if a.is_file() and b.is_file() and a.read_bytes() != b.read_bytes():
        invoke.fail(*invoke.writer[str(b)], f"check: {what}")


def same_models(invoke, wl, files, first, copies):
    """Every copy of the timed part, and the warm-up, must have written the
    model bytes of copy ``first``."""
    for job in wl.jobs:
        same_bytes(invoke, files.model("again", job.algo, 0), files.model(first, job.algo, 0),
                   "same-seed retrain wrote different model bytes")
        for tag in copies:
            for k in range(wl.train_files):
                same_bytes(invoke, files.model(first, job.algo, k),
                           files.model(tag, job.algo, k),
                           f"the {tag} copy wrote different model bytes")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args):
    import numpy
    from miml import _dist

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "have_ext": bool(getattr(_dist, "HAVE_EXT", False)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def geomean(values):
    """Geometric mean over every learner.  A learner with no successful
    run reads 0 and makes the mean 0; its failed invocations are already
    counted, so the run is not correct."""
    values = list(values)
    return statistics.geometric_mean(values) if all(v > 0 for v in values) else 0.0


def per_learner(seconds, rates, record):
    """Each learner's median ``miml train`` seconds and median ``miml eval``
    bags per second, kept in ``record`` for the report.  Medians over many
    short invocations shrug off the machine's brief stalls."""
    med = {algo: statistics.median(v) if v else 0.0 for algo, v in seconds.items()}
    rate = {algo: statistics.median(v) if v else 0.0 for algo, v in rates.items()}
    record["train_s_by_learner"], record["eval_bags_per_s_by_learner"] = med, rate
    return med, rate


def measure(args, wl, invoke, files, record):
    """The timed part of a ``--trace 0`` run; returns train_s and eval_bags_per_s."""
    outputs = {}
    warm_up(invoke, wl, files, outputs)
    seconds, rates = timed_part(invoke, wl, files, "timed", outputs,
                                time.perf_counter() + args.seconds)
    same_models(invoke, wl, files, "timed", ())
    record["checks"] = check_against_prior(invoke, wl, files, outputs)
    med, rate = per_learner(seconds, rates, record)
    record["digests"] = digests(wl, files, "timed", outputs)
    return geomean(med.values()), geomean(rate.values())


def measure_traced(args, wl, invoke, files, record):
    """The timed part untraced, traced and untraced again, each with its
    one eval of every model and no further passes; returns the per-layer
    values.

    The overhead compares the traced time inside invocations with the mean
    of the two untraced ones, which cancels a machine speed that drifts
    steadily over the run.  The per-learner train and eval figures come
    from the two untraced copies."""
    import layers
    import spans

    outputs = {}   # one map: every copy's evals must print the same text
    seconds = {job.algo: [] for job in wl.jobs}
    rates = {job.algo: [] for job in wl.jobs}

    def copy(tag):
        busy = invoke.busy
        s, r = timed_part(invoke, wl, files, tag, outputs, 0.0)
        return invoke.busy - busy, s, r

    def untraced(tag):
        busy, s, r = copy(tag)
        for algo in seconds:
            seconds[algo] += s[algo]
            rates[algo] += r[algo]
        return busy

    warm_up(invoke, wl, files, outputs)
    before = untraced("before")
    tracer = spans.Tracer(wl.name)
    layers.install(tracer)
    invoke.tracer = tracer
    try:
        traced = copy("traced")[0]
    finally:
        invoke.tracer = None
        tracer.restore()
    after = untraced("after")

    same_models(invoke, wl, files, "before", ("traced", "after"))
    record["checks"] = check_against_prior(invoke, wl, files, outputs)
    record["digests"] = digests(wl, files, "before", outputs)
    record["absent_layers"] = tracer.absent
    record["attribution"] = tracer.attribution()
    record["spans"] = [vars(s) for s in tracer.spans] if args.out else []
    values = layers.per_layer_values(tracer, 100.0 * (traced / ((before + after) / 2) - 1.0))
    med, rate = per_learner(seconds, rates, record)
    for algo in layers.LEARNERS:
        values[algo + ".train_s"] = med.get(algo, 0.0)
        values[algo + ".eval_bags_per_s"] = rate.get(algo, 0.0)
    return values


def digests(wl, files, tag, outputs):
    out = {}
    for job in wl.jobs:
        for k in range(wl.train_files):
            path = files.model(tag, job.algo, k)
            if path.is_file():
                out[f"model {job.algo}[{k}]"] = sha256(path.read_bytes())
        for k in range(wl.train_files):
            runs = outputs.get((job.algo, k))
            if runs:
                out[f"eval {job.algo}[{k}]"] = sha256(runs[0][2])
    return out


def report(record, invoke, metrics):
    for key, value in record["env"].items():
        print(f"env {key}: {json.dumps(value)}")
    print(f"setup runs (s): {' '.join(f'{s:.4f}' for s in record['setup_runs'])}")
    for algo, s in record.get("train_s_by_learner", {}).items():
        print(f"train {algo}: {s:.4f} s median over the workload's training files")
    for algo, r in record.get("eval_bags_per_s_by_learner", {}).items():
        print(f"eval {algo}: {r:.1f} bags/s median over every eval of the run")
    for learner, shares in sorted(record.get("attribution", {}).items()):
        total = shares["total"]
        top = sorted((kv for kv in shares.items() if kv[0] != "total"),
                     key=lambda kv: -kv[1])[:5]
        print(f"attribution {learner} fit {total:.3f} s: "
              + ", ".join(f"{layer} {100 * s / total:.1f}%" for layer, s in top))
    if record.get("absent_layers"):
        print("absent layers: " + ", ".join(record["absent_layers"]))
    for line in record["checks"]:
        print(line)
    for name, digest in record["digests"].items():
        print(f"digest {name}: {digest}")
    for number in sorted(invoke.failures):
        print(f"failure #{number}: {invoke.failures[number]}")
    print(f"failed_ratio: {len(invoke.failures)}/{invoke.attempted}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (and spans) as JSON here")
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "miml" / "cli.py").is_file():
        print(f"perfbench: no miml sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from miml import cli

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)
    invoke = Invoker(cli)
    work = WORK / f"{wl.name}-{os.getpid()}"
    record = {"env": environment(args)}
    try:
        setup_runs = []
        for r in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            files = set_up(invoke, wl, args.seed, work / f"setup{r}")
            setup_runs.append(time.perf_counter() - t0)
            if r:
                for path in sorted(files.directory.glob("*.miml")):
                    first = work / "setup0" / path.name
                    same_bytes(invoke, first, path,
                               "synth wrote different bytes from the same spec")
        record["setup_runs"] = setup_runs

        if args.trace:
            values = measure_traced(args, wl, invoke, files, record)
        else:
            train_s, eval_rate = measure(args, wl, invoke, files, record)
            values = {
                "train_s": train_s,
                "eval_bags_per_s": eval_rate,
                "setup_s": statistics.median(setup_runs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    report(record, invoke, metrics)
    failed = len(invoke.failures)
    record.update(metrics=metrics, attempted=invoke.attempted,
                  failures=[invoke.failures[n] for n in sorted(invoke.failures)])
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": invoke.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
