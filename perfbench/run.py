#!/usr/bin/env python3
"""Pipeline benchmark: the panoloc CLI stages on three city workloads.

    python3 perfbench/run.py --workload small-city --seed 7 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the repository root. Set-up imports panoloc and runs
``generate`` in fresh interpreters. A round runs render, fit-map,
predict-sim, localize and evaluate over one group of frames, in one
worker process (worker.py) through ``panoloc.cli.main`` with a user's
flags and --threads 1: a batch closed loop. A pass runs every group once;
passes repeat until --seconds of stage time are measured. Between rounds,
untimed, this process hashes every stage's output, checks it once with
the benchmark's own computations (checks.py) and deletes it. With
--trace 1 every round is followed by a traced replay that gives the
per-layer numbers (tracer.py). The last line of standard output is the
JSON result; README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import Tracer, self_time
from worker import run_cli

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path(".perfbench_runs")
STAGES = ("render", "fit_map", "predict_sim", "localize", "evaluate")
OUT_DIRS = {"render": "frames", "fit_map": "map", "predict_sim": "pred",
            "localize": "loc", "evaluate": "eval"}
SETUP_REPEATS = 5
EVAL_PERCENTILE = 80


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    dims: str
    outlier_rate: float
    flip_rate: float
    localize_flags: tuple
    frames_per_round: int
    rounds_per_pass: int
    # per frame, (m, deg): a wrong pose, not the tail of the error spread,
    # which reaches 1 deg on some seeds (see README)
    max_pose_error: tuple
    sigma: float = 0.33

    @property
    def frames(self) -> int:
        return self.frames_per_round * self.rounds_per_pass


WORKLOADS = {w.name: w for w in (
    Workload("small-city", "small", "512x256", 0.02, 0.02, (), 5, 4, (2.0, 5.0)),
    Workload("large-city", "large", "512x256", 0.02, 0.02, (), 2, 4, (2.0, 5.0)),
    Workload("noisy-sparse", "small", "256x128", 0.30, 0.10,
             ("--max-corrs", "500", "--iterations", "4000", "--threshold-deg", "0.6"),
             5, 4, (3.0, 5.0)),
)}

END_TO_END = {"setup_s": "s", "pipeline_s_per_frame": "s/frame",
              "render_s_per_frame": "s/frame", "fit_map_s_per_frame": "s/frame",
              "predict_sim_s_per_frame": "s/frame", "localize_s_per_frame": "s/frame",
              "evaluate_s_per_frame": "s/frame", "peak_rss_mb": "MB"}

# per-layer metric: (unit, span name, field summed over the round's spans
# or None for their duration); each is divided by the round's frames
ROUND_SUMS = {
    "scene_sim.raycast_render.s_per_frame": ("s/frame", "scene_sim.raycast_render", None),
    "scene_sim.raycast_render.ray_box_tests_per_frame":
        ("tests/frame", "scene_sim.raycast_render", "ray_box_tests"),
    "scene_sim.simulate_predictions.s_per_frame":
        ("s/frame", "scene_sim.simulate_predictions", None),
    "fileio.read_s_per_frame": ("s/frame", "fileio.read", None),
    "fileio.write_s_per_frame": ("s/frame", "fileio.write", None),
    "fileio.bytes_read_per_frame": ("B/frame", "fileio.read", "bytes"),
    "fileio.bytes_written_per_frame": ("B/frame", "fileio.write", "bytes"),
    "geometry.image_bearings.s_per_frame": ("s/frame", "geometry.image_bearings", None),
    "instance_map.build_instance_map.s_per_frame":
        ("s/frame", "instance_map.build_instance_map", None),
    "pnp.ransac_pnp.s_per_frame": ("s/frame", "pnp.ransac_pnp", None),
    "pnp.hypotheses_per_frame": ("hypotheses/frame", "pnp.ransac_pnp", "hypotheses"),
    "pnp.correspondences_per_frame": ("corrs/frame", "pnp.ransac_pnp", "correspondences"),
    "pnp.hypothesis_point_pairs_per_frame": ("pairs/frame", "pnp.ransac_pnp", "pairs"),
    "pnp.epnp_bearing.s_per_frame": ("s/frame", "pnp.epnp_bearing", None),
    "pnp.refit_points_per_frame": ("points/frame", "pnp.epnp_bearing", "points"),
    "pnp.angular_residuals.s_per_frame": ("s/frame", "pnp.angular_residuals", None),
    "pnp.inliers_per_frame": ("inliers/frame", "pnp.ransac_pnp", "inliers"),
    "evaluation.s_per_frame": ("s/frame", "evaluation", None),
    "evaluation.pixels_compared_per_frame": ("pixels/frame", "evaluation", "pixels"),
}
PER_LAYER = {
    **{f"cli.{st}.self_s_per_frame": "s/frame" for st in STAGES},
    **{name: unit for name, (unit, _, _) in ROUND_SUMS.items()},
    "scene_sim.raycast_render.visible_buildings_per_frame": "buildings/frame",
    "scene_sim.raycast_render.visible_share": "share",
    "scene_sim.raycast_render.peak_alloc_mb": "MB",
    "pnp.ransac_pnp.peak_alloc_mb": "MB",
    "instance_map.points_fitted": "points",
    "instance_map.instances": "instances",
    "pnp.ransac_pnp.self_s_per_frame": "s/frame",
    "pnp.inlier_ratio": "share",
    "pnp.refit_lost_inliers_frames": "frames",
    "trace.overhead_s_per_frame": "s/frame",
    "pose_err_median_m": "m",
    "pose_err_median_deg": "deg",
}


def digest(path, data_only=False) -> str:
    """SHA-256 over a directory's files (names and bytes, sorted by name);
    ``data_only`` leaves out the *_meta.json files, which record flags."""
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        if not (data_only and f.name.endswith("_meta.json")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def empty(path):
    """Delete the files in a directory.

    Every round writes fresh files, as a user writing to a new directory
    would: truncating a file whose blocks the kernel has already written
    back can cost 0.1-0.2 s per file (a discard on some disks), and would
    put that cost in a stage's time. Deleting the files within seconds of
    writing them, before write-back, keeps the deletion cheap as well.
    """
    for f in Path(path).iterdir():
        f.unlink()


def source_digest() -> str:
    """SHA-256 over the program's sources and this file, which sets every
    stage's flags: a change to either may change the outputs."""
    h = hashlib.sha256()
    for f in [*sorted((ROOT / "src" / "panoloc").rglob("*.py")), Path(__file__).resolve()]:
        h.update(f.read_bytes())
    return h.hexdigest()


class Pipeline:
    """The command lines and outputs of one workload run."""

    def __init__(self, wl: Workload, seed: int, run_dir: Path):
        self.wl, self.seed, self.run_dir = wl, seed, run_dir
        self.gen = run_dir / "gen0"

    def group(self, g) -> Path:
        return self.run_dir / f"g{g}"

    def out(self, g, stage) -> Path:
        return self.group(g) / OUT_DIRS[stage]

    def argv(self, g, stage, threads=1, out=None) -> list:
        wl, d = self.wl, self.group(g)
        out = str(out or self.out(g, stage))
        frames, pred = str(self.out(g, "render")), str(self.out(g, "predict_sim"))
        imap = str(self.out(g, "fit_map") / "map.json")
        # noise and RANSAC seeds are unique per frame across the groups
        seed = str(self.seed + g * wl.frames_per_round)
        common = ["--threads", str(threads)]
        if stage == "render":
            return ["render", "--scene", str(self.gen / "scene.json"), "--poses",
                    str(d / "poses.jsonl"), "--dims", wl.dims, "--out", out, *common]
        if stage == "fit_map":
            return ["fit-map", "--frames", frames, "--out", str(Path(out) / "map.json"), *common]
        if stage == "predict_sim":
            return ["predict-sim", "--frames", frames, "--map", imap, "--sigma", str(wl.sigma),
                    "--outlier-rate", str(wl.outlier_rate), "--label-flip-rate",
                    str(wl.flip_rate), "--seed", seed, "--out", out, *common]
        if stage == "localize":
            return ["localize", "--frames", pred, "--map", imap, "--seed", seed,
                    *wl.localize_flags, "--out", out, *common]
        return ["evaluate", "--estimates", str(self.out(g, "localize") / "estimates.jsonl"),
                "--gt-poses", str(d / "poses.jsonl"), "--pred-frames", pred, "--gt-frames",
                frames, "--percentiles", str(EVAL_PERCENTILE), "--out", out, *common]

    def check(self, g, stage) -> tuple:
        """(problems, facts) of one stage's output in group ``g``."""
        wl, poses = self.wl, self.group(g) / "poses.jsonl"
        frames, pred = self.out(g, "render"), self.out(g, "predict_sim")
        imap = self.out(g, "fit_map") / "map.json"
        estimates = self.out(g, "localize") / "estimates.jsonl"
        if stage == "render":
            return checks.check_render(frames, poses, self.gen / "scene.json",
                                       self.seed * 1000 + g)
        if stage == "fit_map":
            return checks.check_fit_map(frames, imap), None
        if stage == "predict_sim":
            return checks.check_predict_sim(frames, pred, imap, wl.sigma, wl.outlier_rate,
                                            wl.flip_rate), None
        if stage == "localize":
            return checks.check_localize(estimates, poses, *wl.max_pose_error)
        return checks.check_evaluate(self.out(g, "evaluate") / "report.json", estimates, poses,
                                     frames, pred, EVAL_PERCENTILE), None

    def write_poses(self, g):
        n = self.wl.frames_per_round
        lines = (self.gen / "poses.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        self.group(g).mkdir(exist_ok=True)
        (self.group(g) / "poses.jsonl").write_text("".join(lines[g * n:(g + 1) * n]),
                                                   encoding="utf-8")

    def clear(self, g):
        for stage in STAGES:
            self.out(g, stage).mkdir(parents=True, exist_ok=True)
            empty(self.out(g, stage))

    def clear_all(self):
        """Delete every file a run leaves, keeping the directories."""
        for path in self.run_dir.rglob("*"):
            if path.is_file():
                path.unlink()
        for g in range(self.wl.rounds_per_pass):
            self.clear(g)


def measure_setup(pipe: Pipeline) -> float:
    """Median seconds of SETUP_REPEATS fresh-interpreter set-ups; all must
    write the same scene and poses."""
    wl, times, digests = pipe.wl, [], set()
    for k in range(SETUP_REPEATS):
        out = pipe.run_dir / f"gen{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "setup_probe.py"), "--preset",
             wl.preset, "--poses", str(wl.frames), "--seed", str(pipe.seed), "--threads", "1",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
        digests.add(digest(out, data_only=True))
        if k:
            empty(out)
    if len(digests) != 1:
        raise RuntimeError("generate wrote different scenes or poses for the same seed")
    return statistics.median(times)


class Worker:
    """The process that runs the timed stages (worker.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).parent / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker process ended with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> float:
        """Stop the worker; returns its peak resident memory in MB."""
        peak = self.ask({"exit": True})["peak_rss_mb"]
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)
        return peak

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def check_group(pipe: Pipeline, g: int, first: dict, problems: dict, facts: dict, panoloc):
    """Check every stage output of group ``g`` that was written, once per run."""
    written = {key for key in first if key[0] == g}
    for key in sorted(written):
        try:
            found, facts[key] = pipe.check(*key)
        except Exception as exc:  # an unreadable output fails its stage
            found = [f"check could not read the output: {exc!r}"]
        problems.setdefault(key, []).extend(found)
    if g == 0:
        check_threads(pipe, panoloc.cli.main, written, problems)


def check_threads(pipe: Pipeline, main, written: set, problems: dict):
    """render and localize with --threads 2 write the bytes of --threads 1."""
    for stage in ("render", "localize"):
        if (0, stage) not in written:
            continue
        out = pipe.group(0) / f"{OUT_DIRS[stage]}_threads2"
        _, error = run_cli(main, pipe.argv(0, stage, threads=2, out=out))
        if error or digest(out, data_only=True) != digest(pipe.out(0, stage), data_only=True):
            problems.setdefault((0, stage), []).append(
                f"--threads 2 wrote other bytes than --threads 1 ({error or 'outputs differ'})")
        empty(out)


def measure_allocations(pipe: Pipeline, panoloc, written: set, problems: dict) -> dict:
    """tracemalloc peak inside raycast_render and ransac_pnp, in MB.

    tracemalloc slows every Python allocation (the pure-Python EPnP refit
    several times over), so it runs in an untimed replay of group 0's
    render and localize rather than in the timed traced rounds."""
    mem = Tracer()
    mem.wrap(panoloc.scene_sim, "raycast_render", "scene_sim.raycast_render", alloc=True)
    mem.wrap(panoloc.cli, "ransac_pnp", "pnp.ransac_pnp", alloc=True)
    try:
        for stage in ("render", "localize"):
            if (0, stage) not in written:
                continue
            out = pipe.group(0) / f"{OUT_DIRS[stage]}_tracemalloc"
            _, error = run_cli(panoloc.cli.main, pipe.argv(0, stage, out=out))
            if error or digest(out, data_only=True) != digest(pipe.out(0, stage), data_only=True):
                problems.setdefault((0, stage), []).append(
                    f"a replay under tracemalloc wrote other bytes ({error or 'outputs differ'})")
            empty(out)
    finally:
        mem.unwrap_all()
    return {f"{name}.peak_alloc_mb": max((s["peak_alloc_b"] for s in mem.spans
                                          if s["name"] == name), default=0) / 2 ** 20
            for name in ("scene_sim.raycast_render", "pnp.ransac_pnp")}


def compare_with_earlier_runs(wl: Workload, seed: int, first: dict, problems: dict):
    """Earlier runs with this seed and this program source wrote the same bytes."""
    store = RUNS / f"hashes-{wl.name}-seed{seed}.json"
    current = {"source": source_digest(),
               "digests": {f"g{g}/{st}": d for (g, st), d in sorted(first.items())}}
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        if earlier["source"] == current["source"]:
            for (g, st), d in first.items():
                if earlier["digests"].get(f"g{g}/{st}", d) != d:
                    problems.setdefault((g, st), []).append(
                        "output differs from an earlier run with this seed")
            return
        store.unlink()
    store.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")


def layer_metrics(traced_rounds: list, wl: Workload, facts: dict, overhead: list) -> dict:
    """Per-layer numbers over the traced rounds: times are medians over the
    rounds, counts are means over them; ``overhead`` holds each traced
    round's pipeline seconds per frame minus its untraced twin's."""
    frames = wl.frames_per_round
    rounds = []
    for spans in traced_rounds:
        by = {}
        for s in spans:
            by.setdefault(s["name"], []).append(s)
        rounds.append((by, spans))

    out = {}
    for name, (_, span, field) in ROUND_SUMS.items():
        values = [sum(s.get(field, 0) if field else s["end"] - s["start"]
                      for s in by.get(span, [])) / frames for by, _ in rounds]
        out[name] = statistics.median(values) if field is None else statistics.mean(values)
    for st in STAGES:
        out[f"cli.{st}.self_s_per_frame"] = statistics.median(
            self_time(by[f"cli.{st}"][0], spans) / frames for by, spans in rounds)
    out["pnp.ransac_pnp.self_s_per_frame"] = statistics.median(
        sum(self_time(s, spans) for s in by["pnp.ransac_pnp"]) / frames for by, spans in rounds)
    for name, field in (("instance_map.points_fitted", "points"),
                        ("instance_map.instances", "instances")):
        out[name] = statistics.mean(by["instance_map.build_instance_map"][0][field]
                                    for by, _ in rounds)
    ransac = [s for by, _ in rounds for s in by["pnp.ransac_pnp"]]
    out["pnp.inlier_ratio"] = (sum(s["inliers"] for s in ransac)
                               / sum(s["correspondences"] for s in ransac))
    # the refit is the epnp_bearing call inside ransac_pnp; one pass counts each frame once
    first_pass = rounds[:wl.rounds_per_pass]
    given = {s["parent"]: s["points"] for by, _ in first_pass
             for s in by.get("pnp.epnp_bearing", [])}
    out["pnp.refit_lost_inliers_frames"] = sum(
        1 for by, _ in first_pass for s in by["pnp.ransac_pnp"]
        if s["inliers"] < given.get(s["id"], 0))

    visible = [v for g in range(wl.rounds_per_pass) for v in facts[(g, "render")]]
    width, height = (int(x) for x in wl.dims.split("x"))
    buildings = rounds[0][0]["scene_sim.raycast_render"][0]["ray_box_tests"] / (width * height)
    out["scene_sim.raycast_render.visible_buildings_per_frame"] = statistics.mean(visible)
    out["scene_sim.raycast_render.visible_share"] = statistics.mean(visible) / buildings
    out["trace.overhead_s_per_frame"] = statistics.median(overhead)
    errors = [e for g in range(wl.rounds_per_pass) for e in facts[(g, "localize")].values()]
    out["pose_err_median_m"] = statistics.median(e[0] for e in errors)
    out["pose_err_median_deg"] = statistics.median(e[1] for e in errors)
    return out


def run(wl: Workload, seed: int, seconds: float, trace: bool, panoloc) -> dict:
    # The directories stay from run to run; only files come and go (see empty).
    pipe = Pipeline(wl, seed, RUNS / wl.name)
    pipe.clear_all()
    setup_s = measure_setup(pipe)
    for g in range(wl.rounds_per_pass):
        pipe.write_poses(g)
    worker = Worker()
    try:
        ops, first, problems, facts, traced_rounds, peaks = [], {}, {}, {}, [], {}
        measured, passes = 0.0, 0
        while passes == 0 or measured < seconds:
            for g in range(wl.rounds_per_pass):
                for traced in ((False, True) if trace else (False,)):
                    reply = worker.ask({"round": [pipe.argv(g, st) for st in STAGES],
                                        "traced": traced})
                    broken = None
                    for i, stage in enumerate(STAGES):
                        elapsed, error = (reply["stages"][i] if i < len(reply["stages"])
                                          else (0.0, broken))
                        op = {"pass": passes, "group": g, "stage": stage, "traced": traced,
                              "seconds": elapsed, "error": error}
                        if error is None:
                            d = digest(pipe.out(g, stage))
                            if first.setdefault((g, stage), d) != d:
                                op["error"] = "output differs from the first run of this stage"
                        else:
                            broken = f"skipped: {stage} failed"
                        measured += elapsed
                        ops.append(op)
                    if traced and broken is None:
                        traced_rounds.append(reply["spans"])
                    if passes == 0 and not traced:
                        check_group(pipe, g, first, problems, facts, panoloc)
                        if g == 0 and trace:
                            peaks = measure_allocations(pipe, panoloc, set(first), problems)
                    pipe.clear(g)
            passes += 1
        peak_rss_mb = worker.close()
    except BaseException:
        worker.kill()
        raise
    compare_with_earlier_runs(wl, seed, first, problems)
    if trace:
        with open(RUNS / f"trace-{wl.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"rounds": traced_rounds}, fh)
    pipe.clear_all()

    # an operation fails when it or a stage before it failed, or when a check
    # of its output found a problem; every other operation's output is correct
    for op in ops:
        found = problems.get((op["group"], op["stage"]))
        if op["error"] is None and found:
            op["error"] = "; ".join(found)
    failed = [op for op in ops if op["error"] is not None]
    for op in failed[:10]:
        print(f"FAILED pass {op['pass']} group {op['group']} {op['stage']}"
              f"{' (traced)' if op['traced'] else ''}: {op['error']}", file=sys.stderr)

    rounds = {}
    for op in ops:
        rounds.setdefault((op["pass"], op["group"], op["traced"]), {})[op["stage"]] = \
            op["seconds"] / wl.frames_per_round
    untraced = [r for (_, _, traced), r in rounds.items() if not traced]
    if trace:
        overhead = [sum(r.values()) - sum(rounds[(p, g, False)].values())
                    for (p, g, traced), r in rounds.items() if traced]
        try:
            metrics = {**layer_metrics(traced_rounds, wl, facts, overhead), **peaks}
        except (KeyError, IndexError, statistics.StatisticsError) as exc:
            raise RuntimeError(f"per-layer metrics need every round to run to its end ({exc!r})")
        units = PER_LAYER
    else:
        metrics = {"setup_s": setup_s,
                   "pipeline_s_per_frame": statistics.median(sum(r.values()) for r in untraced),
                   **{f"{st}_s_per_frame": statistics.median(r[st] for r in untraced)
                      for st in STAGES},
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    return {"correct": True, "attempted": len(ops), "failed": len(failed), "passes": passes,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="stage time to measure, in whole passes over the frame groups")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import panoloc.cli
    except ImportError as exc:
        print(f"error: cannot import panoloc from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(panoloc.__file__).resolve().parent != src / "panoloc":
        print(f"error: imported panoloc from {panoloc.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    os.chdir(ROOT)
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace), panoloc)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{wl.name} seed {args.seed}: {result.pop('passes')} pass(es) of "
          f"{wl.rounds_per_pass} rounds x {wl.frames_per_round} frames"
          f"{', traced' if args.trace else ''}")
    for name, m in result["metrics"].items():
        print(f"  {name:<54} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
