"""A seeded fuzz of the command line, run in process through `cli.main`.

Random maps between small shapes, at scales from 1e-300 to 1.7e308, with
states of full and of tiny weight and tolerances in and out of range, go
through every subcommand.  `RuntimeWarning`s are errors here, as in the whole
suite.  Every run must end in exit 0 or 1 (a verdict) or 2 (no verdict),
raise nothing, and print an `error: ` line on every exit 2; a tolerance that
is not finite and positive, or a rank cutoff of 1 or more, must give exit 2.
"""
import json

import numpy as np
import pytest

from qmarkov import cli
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape
from qmarkov.channel import identity_channel, transpose_channel

pytestmark = pytest.mark.filterwarnings("ignore:ae_deterministic called")

SHAPES = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1, 1)]
SCALES = [1e-300, 1.0, 1e200, 1e306, 1.7e308]
# (option value, whether it must be refused)
TOLS = [(None, False)] * 6 + [("1e-6", False), ("nan", True), ("inf", True), ("0", True),
                              ("-1e-9", True)]
RANK_TOLS = [(None, False)] * 6 + [("1e-12", False), ("1", True), ("2", True), ("nan", True)]
PROPS = "cp,unital,star,det,pos,schwarz,ae-det,ae-unital"


def _map(rng, s: AlgebraShape, t: AlgebraShape, scale: float) -> dict:
    """The JSON of a map s ~> t at the given scale: complex parts in [-scale, scale],
    all entries equal, or the identity or transpose of s times scale where t is s."""
    kind = int(rng.integers(0, 4)) if s == t else int(rng.integers(0, 2))
    shape = (t.coord_dim, s.coord_dim)
    if kind == 0:
        m = scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    elif kind == 1:
        m = np.full(shape, scale + 0j)
    else:
        m = scale * (identity_channel(s) if kind == 2 else transpose_channel(s)).matrix
    return {"domain": {"blocks": list(s.blocks)}, "codomain": {"blocks": list(t.blocks)},
            "kind": "matrix", "matrix": [[[z.real, z.imag] for z in row] for row in m]}


def _state(rng, t: AlgebraShape) -> dict:
    """The JSON of a random density on t, one block of it at weight 1e-300 half the time."""
    x = alg._random_coords(t, rng)
    if len(t.blocks) > 1 and rng.integers(0, 2):
        x[:t.blocks[0] ** 2] *= 1e-150
    rho = alg._densities(t, x)
    blocks = [b.tolist() for b in alg.unvec(t, rho).blocks]
    return {"shape": {"blocks": list(t.blocks)},
            "density": [[[[z.real, z.imag] for z in row] for row in b] for b in blocks]}


def _kernel(rng, scale: float) -> dict:
    """The JSON of a random float kernel, column-stochastic at scale 1."""
    k = rng.uniform(0, 1, (2, 3))
    k /= k.sum(axis=0)
    return {"rows": 2, "cols": 3, "entries": (k * scale).tolist()}


def _runs(rng, tmp_path, n_cases: int):
    """(argv, whether a tolerance option must be refused) of every run of the fuzz."""
    yield ["corpus", "list"], False
    yield ["corpus", "run", "mu-norm", "--format", "json"], False
    yield ["props", "--trials", "1", "--seed", str(int(rng.integers(0, 1000)))], False
    for case in range(n_cases):
        s, t = (AlgebraShape(SHAPES[int(rng.integers(0, len(SHAPES)))]) for _ in range(2))
        if rng.integers(0, 2):
            t = s
        scale = SCALES[int(rng.integers(0, len(SCALES)))]
        files = {}
        for key, obj in (("f", _map(rng, s, t, scale)), ("g", _map(rng, t, s, scale)),
                         ("state", _state(rng, t)), ("kernel", _kernel(rng, scale)),
                         ("prob", {"prob": [0.5, 0.25, 0.25]})):
            files[key] = str(tmp_path / f"{case}-{key}.json")
            with open(files[key], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        tol, bad_tol = TOLS[int(rng.integers(0, len(TOLS)))]
        rank, bad_rank = RANK_TOLS[int(rng.integers(0, len(RANK_TOLS)))]
        options = (["--tol", tol] if tol else []) + (["--rank-tol", rank] if rank else [])
        pair = ["--channel", files["f"], "--state", files["state"]]
        for argv in (["check", files["f"], "--props", PROPS, "--state", files["state"],
                      "--trials", "8"],
                     ["bayes"] + pair, ["petz"] + pair,
                     ["disint", "verify"] + pair + ["--candidate", files["g"]],
                     ["disint", "construct"] + pair,
                     ["classical", ("bayes", "disint", "check")[case % 3], "--kernel",
                      files["kernel"], "--prob", files["prob"]]):
            yield argv + options + ["--format", ("text", "json")[case % 2]], bad_tol or bad_rank


def test_every_subcommand_ends_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    bad, codes = [], []
    for argv, refused in _runs(rng, tmp_path, 120):
        try:
            code = cli.main(argv)
        except Exception as exc:   # RuntimeWarning included
            bad.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        finally:
            err = capsys.readouterr().err
        codes.append(code)
        if code not in (0, 1, 2):
            bad.append((argv, f"exit {code}"))
        elif code == 2 and "error: " not in err:
            bad.append((argv, f"exit 2 with no error line: {err[-200:]!r}"))
        elif refused and code != 2:
            bad.append((argv, f"an out-of-range tolerance gave exit {code}"))
    assert not bad, "\n".join(f"{' '.join(a)}: {why}" for a, why in bad)
    assert {0, 1, 2} <= set(codes)   # the fuzz reaches verdicts both ways and refusals
