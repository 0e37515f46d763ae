"""SHA-256 digests of every filter record over a fixed set of models.

    PYTHONPATH=src python tests/record_digest.py > digests.txt

Prints one line per model: its label and shape, then either one SHA-256 over
every record of a run in both modes (``dlm._run`` with "new" and
"classical": a, R, f, Q, A, e, std_err, m, P, n and S) and over the S of the
last state of each mode and series, read through ``dlm._series_output``
before the stack is built, or the error the run raises, with its message,
which names the failing step t. Two source trees keep every record bit for
bit on these models exactly when their outputs are the same, and ``diff``
names the models that differ.

The set is 300 random models (d <= 4, r <= 3, p <= 4, M <= 3 series that
share a mask, a constant or time-varying design, W or a discount, partly and
fully missing steps) and the failing models of ``tests/test_dlm.py``, with a
late failure at d = 8, p = 40. Every input is drawn from numpy's seeded
generator, and the script reads only ``dlm._run``, ``dlm._series_output``
and the public model and state classes, so it runs on older trees too.

Then one line per file that the CLI writes, and per stdout, on a few fixed
seeds: ``mvdlm filter --mode both`` on a p = 3, r = 2 series with missing
cells written ``NA``, empty and ``na``, and ``mvdlm simulate`` on the
replication study, each line the file's SHA-256 or the exit code and
stderr of a run that fails. The script writes the input CSV itself, with
``repr``, and calls only ``cli.main``, so both trees read the same input and
any output byte that moves shows. pytest does not collect it.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

import mvdlm as mv
from mvdlm import cli

RANDOM_MODELS = 300
CLI_SEEDS = (0, 1, 7)
RECORDS = ("a", "R", "f", "Q", "A", "e", "std_err", "m", "P", "n")
MODES = ("new", "classical")


def digest(model, prior, y) -> str:
    """The SHA-256 of every record of a two-mode run of the M x T x r x p
    ``y``, or the error the run raises."""
    try:
        rec = mv.dlm._run(model, prior, y, MODES)
    except mv.MvdlmError as exc:
        return f"{type(exc).__name__}: {exc}"
    sha = hashlib.sha256()
    # the last states first: a state read before the stack is built builds its own
    finals = [("final S", mv.dlm._series_output(rec, k, i).states[-1].miw.S)
              for k in range(len(MODES)) for i in range(y.shape[0])]
    for name, value in [(name, rec[name]) for name in RECORDS] + [("S", rec["S"]())] + finals:
        sha.update(f"{name}{value.shape}".encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def random_case(i: int):
    rng = np.random.default_rng([28, i])
    d, r, p, M = (int(rng.integers(1, top + 1)) for top in (4, 3, 4, 3))
    T = int(rng.integers(1, 41))
    varying, use_w = rng.random(2) < 0.5
    F = rng.standard_normal((T, d, r))
    G = np.eye(d) + 0.3 * rng.standard_normal((T, d, d))
    B = rng.standard_normal((T, r, r))
    V = B @ B.swapaxes(1, 2) + 0.5 * np.eye(r)
    C = rng.standard_normal((T, d, d))
    W = 0.1 * C @ C.swapaxes(1, 2) + 0.05 * np.eye(d)

    def given(stack):
        return (lambda t: stack[t - 1]) if varying else stack[0]

    evolution = dict(W=given(W)) if use_w else dict(discount=float(rng.uniform(0.7, 1.0)))
    model = mv.ModelSpec(d=d, p=p, r=r, F=given(F), G=given(G), V=given(V), **evolution)
    A, Z = rng.standard_normal((d, d)), rng.standard_normal((p, p))
    prior = mv.NmiwState(
        m=rng.standard_normal((d, p)), P=(A @ A.T + np.eye(d)) * 10.0 ** rng.uniform(-1, 6),
        miw=mv.MiwParams(S=Z @ Z.T / p + np.eye(p), n=rng.uniform(1.0, 5.0, p), v=float(p)))
    y = 3.0 * rng.standard_normal((M, T, r, p))
    missing = rng.random((T, r, p)) < rng.choice([0.0, 0.1, 0.3, 0.6])
    if rng.random() < 0.5:
        missing[rng.integers(T)] = True
    y[:, missing] = np.nan
    label = (f"random {i} d={d} p={p} r={r} M={M} T={T} "
             f"{'W' if use_w else 'delta'} {'varying' if varying else 'constant'}")
    return label, model, prior, y


def _prior(m, P, p):
    return mv.NmiwState(m=np.asarray(m, dtype=float), P=np.asarray(P, dtype=float),
                        miw=mv.MiwParams(S=np.eye(p), n=np.ones(p), v=float(p)))


def _scalar(v=1.0, delta=None, w=None, G=np.eye(1)):
    W = None if w is None else np.array([[w]])
    return mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), G=G, V=np.array([[v]]), W=W, discount=delta)


def failing_cases():
    """Models whose run raises: the failing models of ``tests/test_dlm.py``,
    a few variants of them, and the late failure at d = 8, p = 40."""
    yield "singular Q", _scalar(v=0.0, delta=1.0), _prior([[0.0]], [[0.0]], 1), \
        np.ones((1, 3, 1, 1))
    for d in (1, 2, 3):
        for label, p0, v in (("overflowing Q", 1e308, 1.0), ("zero Q", 0.0, 0.0)):
            model = mv.ModelSpec(d=d, p=2, r=1, F=np.ones((d, 1)), G=10.0 * np.eye(d),
                                 V=np.array([[v]]), discount=1.0)
            yield f"{label} d={d}", model, _prior(np.zeros((d, 2)), p0 * np.eye(d), 2), \
                np.ones((1, 3, 1, 2))
    lu_singular = np.array([[0.003305626623116044, -0.0049834247877285605],
                            [-0.0049834247877285605, 0.007512803303700776]])
    # lu_singular is rank 1: a 2 x 2 LU with partial pivoting swaps its rows and
    # finds it exactly singular, and Cholesky factors it with a pivot ratio of 1.56 eps
    for d, r, V3 in ((1, 1, 0.0), (2, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (1, 2, lu_singular),
                     (2, 2, lu_singular), (3, 1, 0.0), (4, 1, 0.0)):
        kind = "LU-singular" if V3 is lu_singular else "singular"
        model = mv.ModelSpec(d=d, p=1, r=r, F=np.ones((d, r)), G=np.eye(d), discount=1.0,
                             V=lambda t, V3=V3, r=r: (np.broadcast_to(V3, (r, r)) if t == 3
                                                      else np.eye(r)))
        yield f"late {kind} Q d={d} r={r}", model, _prior(np.zeros((d, 1)), np.zeros((d, d)), 1), \
            np.ones((1, 5, r, 1))
    for r, V2, first in ((1, [[-0.9]], [[0.5, np.nan]]),
                         (2, [[-0.6, -1.0], [-1.0, -0.6]], [[0.5, 0.4], [0.3, np.nan]])):
        model = mv.ModelSpec(d=1, p=2, r=r, F=np.ones((1, r)), G=np.eye(1), W=np.zeros((1, 1)),
                             V=lambda t, V2=V2, r=r: np.array(V2) if t == 2 else np.eye(r))
        data = np.array([first] + [[[0.1, 0.2], [0.3, 0.1]][:r]] * 2)
        yield f"Q only new cannot factor r={r}", model, _prior(np.zeros((1, 2)), np.eye(1), 2), \
            data[None]
    model = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1), W=0.1 * np.eye(1),
                         V=lambda t: np.array([[-10.0 if t == 4 else 1.0]]))
    data = np.array([np.nan, 1e308, 0.0, 0.0, 0.0]).reshape(1, 5, 1, 1)
    yield "residual before indefinite Q", model, _prior([[-1e308]], [[1e-6]], 1), data
    model = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), V=np.eye(1), W=0.1 * np.eye(1),
                         G=lambda t: np.array([[1e200 if t == 2 else 1.0]]))
    yield "Q and residual overflow", model, _prior([[1e200]], [[1.0]], 1), np.zeros((1, 3, 1, 1))
    for m0, p0 in ((0.0, 1e308), (1e308, 1.0)):
        model = _scalar(w=0.1, G=10.0 * np.eye(1))
        yield f"overflow m0={m0:g} P0={p0:g}", model, _prior([[m0]], [[p0]], 1), \
            np.zeros((1, 2, 1, 1))
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
    data = np.array([[np.nan, np.nan], [1e308, np.nan], [1.0, 2.0]])[None, :, None, :]
    yield "residual only new updates with", model, _prior([[-1e308, 0.0]], [[1e-6]], 2), data
    model = mv.ModelSpec(d=1, p=2, r=1, G=np.eye(1), discount=0.9,
                         F=lambda t: np.array([[np.nan if t == 4 else 1.0]]),
                         V=lambda t: np.array([[-1e9 if t == 3 else 1.0]]))
    yield "F not finite at t=4", model, mv.default_prior(), np.full((1, 6, 1, 2), 0.5)
    # a d < r design under a vague prior: F'RF has rank d, and at P0 = 1e16 it
    # swamps V in the float sum, so Q cannot be factored
    for d, r, seed in ((1, 2, 9), (1, 2, 18), (1, 3, 0), (2, 3, 1)):
        rng = np.random.default_rng([28, 1000 + seed])
        model = mv.ModelSpec(d=d, p=2, r=r, F=rng.standard_normal((d, r)), G=np.eye(d),
                             V=np.eye(r), discount=0.95)
        yield f"vague prior d={d} r={r} seed={seed}", model, \
            _prior(np.zeros((d, 2)), 1e16 * np.eye(d), 2), \
            rng.standard_normal((1, 4, r, 2))
    # R grows by 1/delta per step in the seven directions F does not see, until
    # Q cannot be factored
    d, p = 8, 40
    model = mv.ModelSpec(d=d, p=p, r=1, F=np.full((d, 1), 1.0 / d), G=np.eye(d), V=np.eye(1),
                         discount=0.95)
    y = np.random.default_rng([28, 2000]).standard_normal((1, 1000, 1, p))
    for p0 in (1e6, 10.0, 1.0):
        yield f"late failure d=8 p=40 P0={p0:g}", model, \
            _prior(np.zeros((d, p)), p0 * np.eye(d), p), y


FILTER_INI = """\
[model]
d = 1
p = 3
r = 2
F = [[1.0, 1.0]]
G = identity
V = identity
discount = 0.9

[prior]
m0 = zeros
P0 = 1e6
S0 = identity
N0 = 1.0
"""

SIMULATE_INI = """\
[model]
d = 1
p = 2
r = 1
F = [[1.0]]
G = identity
V = identity
discount = 0.5

[prior]
m0 = zeros
P0 = 1e6
S0 = identity
N0 = 1.0

[simulate]
T = 300
corr = 0.8
seed = {seed}
replications = 3
pattern = {{24: [2], 60: [1, 2], 257: [1], 280: [2]}}
"""


def filter_csv(seed: int) -> str:
    """The text of a 600-row p = 3, r = 2 series, about 10% of its cells
    missing and written ``NA``, empty or ``na``, and every 250th row missing."""
    rng = np.random.default_rng([40, seed])
    y = np.cumsum(rng.standard_normal((600, 6)) * 0.2, axis=0) + rng.standard_normal((600, 6))
    y *= 10.0 ** rng.integers(-3, 4)
    missing = rng.random(y.shape) < 0.1
    missing[249::250] = True
    marks = rng.choice(["NA", "", "na"], size=y.shape)
    lines = [",".join(f"y{j}_{k}" for j in range(1, 4) for k in range(1, 3))]
    lines += [",".join(mark if gone else repr(x) for x, gone, mark in zip(row, gaps, marked))
              for row, gaps, marked in zip(y.tolist(), missing, marks)]
    return "\n".join(lines) + "\n"


def cli_runs():
    """``(label, argv, files)`` of each CLI run, in a fresh directory each:
    argv names its files relative to that directory."""
    for seed in CLI_SEEDS:
        yield (f"cli filter seed={seed}",
               ["filter", "--config", "run.ini", "--data", "data.csv", "--mode", "both",
                "--out", "records.csv"],
               {"run.ini": FILTER_INI, "data.csv": filter_csv(seed)})
        yield (f"cli simulate seed={seed}",
               ["simulate", "--config", "run.ini", "--out", "out"],
               {"run.ini": SIMULATE_INI.format(seed=seed)})


def cli_digests(argv, files) -> list[tuple[str, str]]:
    """``(name, digest)`` of stdout and of every file a run of ``cli.main``
    writes, or of its exit code and stderr if it fails."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code:
                return [("exit", f"{code}: {err.getvalue().strip()}")]
            written = sorted(path for path in Path().rglob("*")
                             if path.is_file() and path.name not in files)
            return [("stdout", hashlib.sha256(out.getvalue().encode()).hexdigest())] + [
                (path.as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
                for path in written]
        finally:
            os.chdir(cwd)


def main() -> None:
    cases = [random_case(i) for i in range(RANDOM_MODELS)]
    for label, model, prior, y in cases + list(failing_cases()):
        print(f"{label}: {digest(model, prior, y)}")
    for label, argv, files in cli_runs():
        for name, value in cli_digests(argv, files):
            print(f"{label} {name}: {value}")


if __name__ == "__main__":
    main()
