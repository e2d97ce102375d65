"""Smoke test of scripts/run_synthetic_experiment.py, run as a user would."""
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "run_synthetic_experiment.py")


def test_synthetic_experiment_runs(tmp_path):
    out = tmp_path / "results"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--epochs", "1", "--hidden-dim", "8", "--ks", "1", "3",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "1-NN accuracy: adaptive" in proc.stdout
    for name in ("sa", "dwh"):
        run_dir = out / name
        for artifact in ("checkpoint.json", "trainlog.csv", "knn_accuracy.csv"):
            assert (run_dir / artifact).is_file(), (name, artifact)
        lines = (run_dir / "knn_accuracy.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["k", "1", "3"]
        for view in (0, 1):
            assert glob.glob(str(run_dir / f"filters_view{view}_*.pgm")), (name, view)
