"""The workload's process: runs pipeline rounds for run.py.

    python3 perfbench/worker.py

Reads one JSON request per line on standard input and answers each with
one JSON line on standard output:

  {"round": [argv, ...], "traced": bool}
      runs the stage command lines in order through panoloc.cli.main,
      stopping at the first that fails; answers {"stages": [[seconds,
      error or null], ...], "spans": [...]} (spans only when traced).
  {"exit": true}
      answers {"peak_rss_mb": ...} and exits.

Only the stages run here, so this process's peak resident memory is the
pipeline's own.
"""

import contextlib
import io
import json
import os.path
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer


def run_cli(main, argv) -> tuple:
    """(seconds, error or None) of one CLI invocation."""
    log = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main(argv)
    except Exception as exc:  # a crashing stage is a failed operation, not the end of the run
        code = repr(exc)
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit {code}: {log.getvalue().strip()[-300:]}"


def install_spans(tracer: Tracer, panoloc):
    """Wrap each public function at the name where the CLI or another
    module looks it up."""
    cli, fileio, scene_sim, pnp, evaluation = (panoloc.cli, panoloc.fileio, panoloc.scene_sim,
                                              panoloc.pnp, panoloc.evaluation)

    def file_size(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    for module, attr in [(fileio, "load_coords"), (fileio, "load_labels"),
                         (fileio, "load_instance_map"), (fileio, "load_scene"),
                         (fileio, "load_estimates_jsonl"), (cli, "load_poses_jsonl")]:
        tracer.wrap(module, attr, "fileio.read", file_size)
    for module, attr in [(fileio, "save_coords"), (fileio, "save_labels"),
                         (fileio, "save_instance_map"), (fileio, "save_estimates_jsonl")]:
        tracer.wrap(module, attr, "fileio.write", file_size)
    tracer.wrap(scene_sim, "raycast_render", "scene_sim.raycast_render",
                lambda a, k, r: {"ray_box_tests": a[2][0] * a[2][1] * len(a[0].buildings)})
    tracer.wrap(scene_sim, "simulate_predictions", "scene_sim.simulate_predictions")
    tracer.wrap(scene_sim, "image_bearings", "geometry.image_bearings")
    tracer.wrap(cli, "image_bearings", "geometry.image_bearings")
    tracer.wrap(cli, "build_instance_map", "instance_map.build_instance_map",
                lambda a, k, r: {"points": len(a[0]), "instances": len(r)})
    tracer.wrap(cli, "ransac_pnp", "pnp.ransac_pnp",
                lambda a, k, r: {"correspondences": len(a[0]), "hypotheses": a[1].iterations,
                                 "pairs": len(a[0]) * a[1].iterations,
                                 "inliers": int(r.inlier_indices.size)})
    tracer.wrap(pnp, "epnp_bearing", "pnp.epnp_bearing", lambda a, k, r: {"points": len(a[0])})
    tracer.wrap(pnp, "angular_residuals", "pnp.angular_residuals")
    tracer.wrap(evaluation, "coord_distances", "evaluation", lambda a, k, r: {"pixels": r[1]})
    tracer.wrap(evaluation, "pose_metrics", "evaluation")
    tracer.wrap(evaluation, "error_curves", "evaluation")


def run_round(panoloc, stages, traced) -> dict:
    tracer = Tracer()
    if traced:
        install_spans(tracer, panoloc)
    results = []
    try:
        for argv in stages:
            name = "cli." + argv[0].replace("-", "_")
            with tracer.span(name) if traced else contextlib.nullcontext():
                results.append(run_cli(panoloc.cli.main, argv))
            if results[-1][1] is not None:
                break
    finally:
        tracer.unwrap_all()
    return {"stages": results, "spans": tracer.spans}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import panoloc.cli

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        else:
            reply = run_round(panoloc, request["round"], request["traced"])
        print(json.dumps(reply), flush=True)
        if request.get("exit"):
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
