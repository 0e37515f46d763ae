"""Package surface: the top-level exports are exactly the modules' public names,
and the runtime needs numpy only."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import mvdlm

MODULES = ("linalg", "distributions", "dlm", "simulate", "errors")


def test_top_level_exports_are_the_union_of_module_exports():
    assert len(set(mvdlm.__all__)) == len(mvdlm.__all__)
    for name in mvdlm.__all__:
        assert hasattr(mvdlm, name), name
    union = set()
    for module_name in MODULES:
        module = importlib.import_module(f"mvdlm.{module_name}")
        for name in module.__all__:
            assert getattr(mvdlm, name) is getattr(module, name), name
        union.update(module.__all__)
    assert set(mvdlm.__all__) == union


SIM_CONFIG = """\
[model]
d = 1
p = 2
r = 1
F = [[1.0]]
G = identity
V = identity
discount = 0.5

[prior]
P0 = 1e6
S0 = identity
N0 = 1.0

[simulate]
T = 40
seed = 3
replications = 4
pattern = {5: [2], 9: [1, 2], 20: [1]}
"""

NO_SCIPY_SCRIPT = """\
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import numpy as np
import mvdlm as mv
from mvdlm import cli

rng = np.random.default_rng(0)
model = mv.ModelSpec(d=1, p=2, r=2, F=np.ones((1, 2)), G=np.eye(1), V=np.eye(2),
                     discount=0.9)
y = rng.standard_normal((12, 2, 2))
y[3, 0, 1] = np.nan  # partly missing step
y[6] = np.nan  # fully missing step
for mode in ("new", "classical"):
    out = mv.filter(model, y, mv.default_prior(), mode=mode)
    assert np.isfinite(out.S).all()

miw = mv.MiwParams(S=np.eye(2), n=np.array([3.0, 4.0]), v=2.0)
Sigma = mv.sample_miw(miw, rng)
assert mv.sample_miw(miw, rng, size=3).shape == (3, 2, 2)
R, k = mv.miw_to_iw(miw)
values = [
    mv.iw_log_density(Sigma, R, k),
    mv.mt_log_density(np.zeros((2, 2)), mv.MtParams(f=np.zeros((2, 2)), Q=np.eye(2),
                                                     S=miw.S, n=miw.n, v=miw.v)),
    mv.matrix_normal_log_density(np.zeros((2, 2)),
                                 mv.MatrixNormalParams(M=np.ones((2, 2)), P=np.eye(2),
                                                       Sigma=Sigma)),
    mv.log_multigamma(3.5, 3),
]
assert all(np.isfinite(values))
assert cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
"""


def test_runtime_needs_no_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(SIM_CONFIG)
    src = str(Path(mvdlm.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.txt").exists()
