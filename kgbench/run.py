"""KG-build benchmark: oracle-gated ``run_kg_pipeline`` builds, closed loop.

    python3 kgbench/run.py --workload build_large --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process (this one) generates the load: it
makes the seeded pages, computes the oracle's expected outputs (cached per
input hash, outside every timed window), times fresh Ray sessions from
process start to ready-to-build, then asks one session for builds back to
back until ``--seconds`` have passed.  Every build is checked against the
oracle; a build that raises, misses its deadline or differs from the oracle
counts as failed, and a build that misses its deadline also restarts the
session.  The program is observed only from outside: call timings, the
``manifest.jsonl`` each build writes, the files it writes and ``/proc``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced build, replays each layer's public functions on the same
pages and prints the per-layer metrics.  The last stdout line is the JSON
result.  See kgbench/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import gate  # noqa: E402
import inputs  # noqa: E402
import procs  # noqa: E402
from manifest import unit_totals, read_records, UNITS  # noqa: E402

WORKLOADS = {
    # full builds: pages -> parsed -> nodes, edges, canonical, mentions
    "build_large": {"pages": 2000, "resume": False},
    # the same pages resumed from a completed parsed checkpoint
    "graph_resume": {"pages": 2000, "resume": True},
}
WARM_PAGES = 32           # warm-up job input, one file per logical CPU
SETUP_PROBES = 1          # extra fresh session timed for setup_s only
SETUP_DEADLINE_S = 60
BUILD_DEADLINE_S = 60
LAST_BUILD_START_S = 100  # keeps a run inside 180 s even when a build hangs
ORACLE_CACHE_ENTRIES = 16
RAY_TEMP_MAX_LEN = 43     # + "/session_<ts>_<pid>/sockets/plasma_store" < 108 (AF_UNIX)

END_TO_END = {"build_s": "s", "pages_per_s": "1/s", "setup_s": "s", "peak_mem_mb": "MB",
              "out_bytes_per_page": "B", "ok_ratio": "ratio"}
PER_LAYER = {
    **{f"run.{u}_s": "s" for u in UNITS}, "run.driver_s": "s",
    **{f"run.{u}_rows": "count" for u in UNITS},
    "extract.us_per_page": "us", "extract.kept_ratio": "ratio",
    "hashing.bucket_of_ns": "ns", "hashing.md5_id_ns": "ns",
    "grouped.keep_first_us_per_row": "us", "grouped.count_first_us_per_row": "us",
    "linkage.normalize_us_per_name": "us", "linkage.canonicalize_us_per_triple": "us",
    "ner.compile_ms": "ms", "ner.us_per_page": "us", "ner.mentions_per_page": "count",
    "lineage.counter_rtt_ms": "ms", "sources.read_s": "s", "out.files": "count",
    "proc.workers_peak": "count", "trace.overhead_pct": "%",
}


class SessionError(RuntimeError):
    pass


class Session:
    """A ``session.py`` child process; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, temp_dir: str, warm_pages: str, mode: str, log):
        env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")])))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), temp_dir, warm_pages, mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True, env=env)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            self.logical_cpus = self._read(SETUP_DEADLINE_S)["logical_cpus"]
        except SessionError:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self, timeout: float) -> dict:
        if not self._sel.select(timeout):
            raise SessionError(f"no answer within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise SessionError(f"session exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, timeout: float, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        resp = self._read(timeout)
        if "error" in resp:
            raise SessionError(resp["error"])
        return resp

    def close(self) -> None:
        """Ask the session to shut Ray down; kill whatever is left after."""
        pids = procs.tree(self.proc.pid)
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill(pids)

    def kill(self, pids: list[int] | None = None) -> None:
        procs.kill_all(pids or procs.tree(self.proc.pid))
        self.proc.wait()
        self._sel.close()
        for f in (self.proc.stdin, self.proc.stdout):
            f.close()


def _parquet_files(d: str) -> list[str]:
    return [os.path.join(r, f) for r, _, fs in os.walk(d) for f in fs if f.endswith(".parquet")]


def _prune_cache(cache_root: str) -> None:
    entries = sorted((os.path.join(cache_root, e) for e in os.listdir(cache_root)),
                     key=os.path.getmtime, reverse=True)
    for e in entries[ORACLE_CACHE_ENTRIES:]:
        shutil.rmtree(e, ignore_errors=True)


class Bench:
    def __init__(self, args, run_dir: str, temp_dir: str, log):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.run_dir = run_dir
        self.temp_dir = temp_dir
        self.log = log
        self.t_start = time.perf_counter()
        self.session: Session | None = None
        self.setups: list[float] = []
        self.builds: list[dict] = []
        self.problems: list[str] = []
        self.kept_out: str | None = None

    # -- inputs and sessions ------------------------------------------------
    def prepare(self) -> None:
        pages = inputs.make_pages(self.args.seed, self.wl["pages"])
        self.n_pages = pages.num_rows
        digest = inputs.input_hash(pages)
        print(f"workload={self.args.workload} seed={self.args.seed} pages={self.n_pages} "
              f"input_hash={digest}", flush=True)
        self.pages_dir = inputs.write_pages(pages, os.path.join(self.run_dir, "pages"))
        self.warm_dir = inputs.write_pages(
            inputs.make_pages(self.args.seed, WARM_PAGES), os.path.join(self.run_dir, "warm"),
            rows_per_file=WARM_PAGES // 4)
        cache_root = os.path.join(os.path.dirname(self.run_dir), "oracle")
        os.makedirs(cache_root, exist_ok=True)
        self.expected = gate.load_expected(pages, os.path.join(cache_root, digest))
        _prune_cache(cache_root)

    def start_session(self, mode: str = "serve") -> Session:
        s = Session(self.temp_dir, self.warm_dir, mode, self.log)
        self.setups.append(s.setup_s)
        if mode == "serve":
            self.session = s
            print(f"session: logical_cpus={s.logical_cpus} "
                  f"host_cpus={len(os.sched_getaffinity(0))}", flush=True)
        return s

    def checkpoint(self) -> str | None:
        """graph_resume: a run killed after its parsed unit, kept as the
        checkpoint every build resumes from."""
        if not self.wl["resume"]:
            return None
        ckpt = os.path.join(self.run_dir, "checkpoint")
        self.session.call(BUILD_DEADLINE_S, op="checkpoint", pages=self.pages_dir, out=ckpt)
        units = [r["unit"] for r in read_records(ckpt)]
        if units != ["parsed:group=0"]:
            raise SessionError(f"checkpoint holds units {units}, expected the parsed unit only")
        return ckpt

    # -- one build ----------------------------------------------------------
    def build(self, ckpt: str | None) -> dict:
        out = os.path.join(self.run_dir, f"out-{len(self.builds)}")
        if ckpt:
            shutil.copytree(ckpt, out)
        b = {"out": out, "ok": False}
        self.builds.append(b)
        try:
            with procs.TreeSampler(self.session.proc.pid) as sampler:
                resp = self.session.call(BUILD_DEADLINE_S, op="build", pages=self.pages_dir, out=out)
        except SessionError as e:
            self.problems.append(f"build {len(self.builds)}: {e}")
            self.session.kill()
            self.start_session()
            return b
        b.update(build_s=resp["build_s"], start=resp["start"], peak_mb=sampler.peak_mb,
                 workers_peak=sampler.workers_peak)
        found = gate.check(out, self.expected)
        self.problems += [f"build {len(self.builds)}: {p}" for p in found]
        b["ok"] = not found
        b["records"] = read_records(out)
        b["out_bytes"] = sum(os.path.getsize(f) for f in _parquet_files(out))
        b["out_files"] = len(_parquet_files(out))
        if b["ok"] and self.kept_out is None:
            self.kept_out = out  # kept for the self-check and the traced run
        else:
            shutil.rmtree(out, ignore_errors=True)
        return b

    def self_check(self) -> None:
        if self.kept_out is None:
            self.problems.append("self-check skipped: no correct build")
            return
        self.problems += gate.self_check(self.kept_out, self.expected,
                                         os.path.join(self.run_dir, "selfcheck"))

    # -- the two modes --------------------------------------------------------
    def measure(self) -> dict:
        for _ in range(SETUP_PROBES):
            self.start_session("probe").close()
        self.start_session()
        ckpt = self.checkpoint()
        t0 = time.perf_counter()
        while not self.builds or (time.perf_counter() - t0 < self.args.seconds
                                  and time.perf_counter() - self.t_start < LAST_BUILD_START_S):
            self.build(ckpt)
        self.self_check()
        done = [b for b in self.builds if "build_s" in b]
        build_s = statistics.median(b["build_s"] for b in done) if done else 0.0
        ok = sum(b["ok"] for b in self.builds)
        print(f"builds: {[round(b.get('build_s', -1), 3) for b in self.builds]} "
              f"setups: {[round(s, 3) for s in self.setups]}", flush=True)
        return {
            "build_s": build_s,
            "pages_per_s": self.n_pages / build_s if build_s else 0.0,
            "setup_s": statistics.median(self.setups),
            "peak_mem_mb": statistics.median(b["peak_mb"] for b in done) if done else 0.0,
            "out_bytes_per_page": statistics.median(b["out_bytes"] for b in done) / self.n_pages
            if done else 0.0,
            "ok_ratio": ok / len(self.builds),
        }

    def trace(self) -> dict:
        self.start_session()
        ckpt = self.checkpoint()
        untraced = self.build(ckpt)
        traced = self.build(ckpt)
        self.self_check()
        if not traced["ok"] or not untraced.get("build_s"):
            return {k: 0.0 for k in PER_LAYER}
        build_id = f"{self.args.workload}-seed{self.args.seed}"
        spans = [{"name": "build", "start": traced["start"],
                  "end": traced["start"] + traced["build_s"], "parent": None, "build_id": build_id}]
        records = traced["records"]
        ran = [r for r in records if r["ts"] >= traced["start"]]
        spans += [{"name": f"run.{r['unit']}", "start": r["ts"] - r["wall_sec"], "end": r["ts"],
                   "parent": "build", "build_id": build_id} for r in ran]
        totals = unit_totals(records)
        m = {f"run.{u}_s": totals[u]["wall_sec"] for u in UNITS}
        m["run.driver_s"] = traced["build_s"] - sum(r["wall_sec"] for r in ran)
        m.update({f"run.{u}_rows": totals[u]["rows"] for u in UNITS})
        m["extract.kept_ratio"] = totals["parsed"]["rows"] / totals["parsed"]["counters"]["pages_in"]
        m["out.files"] = traced["out_files"]
        m["proc.workers_peak"] = traced["workers_peak"]
        m["trace.overhead_pct"] = (traced["build_s"] / untraced["build_s"] - 1) * 100
        layers = self.session.call(BUILD_DEADLINE_S, op="layers", pages=self.pages_dir,
                                   build_id=build_id)
        m.update(layers["metrics"])
        spans += layers["spans"]
        trace_dir = os.path.join(os.path.dirname(self.run_dir), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{build_id}.jsonl"), "w", encoding="utf-8") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)
        return m


def _ray_temp_dir(run_dir: str) -> tuple[str, bool]:
    """Ray's temp dir: inside the run dir when its socket paths fit AF_UNIX's
    limit, else a short directory under the system temp dir (removed after)."""
    if len(run_dir) + 2 <= RAY_TEMP_MAX_LEN:
        return os.path.join(run_dir, "r"), False
    return tempfile.mkdtemp(prefix="kgb"), True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run_dir = os.path.join(ROOT, ".kgb", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    temp_dir, temp_outside = _ray_temp_dir(run_dir)
    log_path = os.path.join(run_dir, "session.log")
    bench = None
    try:
        with open(log_path, "w") as log:
            bench = Bench(args, run_dir, temp_dir, log)
            bench.prepare()
            try:
                metrics = bench.trace() if args.trace else bench.measure()
            finally:
                if bench.session is not None:
                    bench.session.close()
    except Exception:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if temp_outside:
            shutil.rmtree(temp_dir, ignore_errors=True)

    for p in bench.problems:
        print(f"PROBLEM: {p}", flush=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(not b["ok"] for b in bench.builds)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": len(bench.builds),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
