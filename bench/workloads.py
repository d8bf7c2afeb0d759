"""Inputs and expected verdicts for the three benchmark workloads.

A workload is a list of rounds and a round is a list of cases; the runner
repeats whole rounds.  Each case makes fresh inputs before its timed call
(``Channel.cached`` memoizes verdicts per channel object, so a repeated call
on one object would time a dict lookup), times one verdict-producing call,
and maps the result to a tuple of verdicts.  ``expected`` holds the verdict
the construction guarantees in each position, or None where the construction
guarantees nothing.

Importing this module imports qmarkov.  The timed calls look qmarkov functions
up on their modules at call time, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
from typing import Callable, Iterator

import numpy as np

import qmarkov as qm
from qmarkov import algebra as alg
from qmarkov import cli, corpus, props
from qmarkov import finstoch as fs

WORKLOADS = ("chain", "blocks", "corpus")


@dataclasses.dataclass(frozen=True)
class Case:
    kind: str
    fresh: Callable[[], Callable[[], object]]   # untimed: new inputs -> the timed call
    verdict: Callable[[object], tuple]          # untimed: result -> verdicts
    expected: tuple


def matches(verdict: tuple, expected: tuple) -> bool:
    return len(verdict) == len(expected) and all(
        e is None or v == e for v, e in zip(verdict, expected)
    )


def build(name: str, seed: int, tiny: bool = False) -> list[list[Case]]:
    """The rounds of a workload; `tiny` shrinks every size for self-tests."""
    builders = {"chain": chain_rounds, "blocks": blocks_rounds, "corpus": corpus_rounds}
    return builders[name](seed, tiny)


def _copy(f: qm.Channel) -> qm.Channel:
    """The same map as a new object with an empty verdict cache."""
    return qm.Channel(f.domain, f.codomain, f.matrix.copy())


def _verdicts(*reports) -> tuple:
    return tuple(r.verdict for r in reports)


# ---------------------------------------------------------------------------
# chain: the criterion-6 consequence chain
# ---------------------------------------------------------------------------

def _size_keys(kind: str, max_dim: int) -> set:
    """Every (domain blocks, codomain blocks) that disintegration_instance draws."""
    dims = range(2, max_dim + 1)
    if kind == "unitary":
        return {((n,), (n,)) for n in dims}
    if kind == "padded-block":
        return {((n,), (n, k)) for n in range(2, max_dim) for k in range(1, max_dim + 1)}
    return {((1,) * ny, (1,) * nx) for nx in dims for ny in dims}


def chain_rounds(seed: int, tiny: bool) -> list[list[Case]]:
    """One round holds one instance of every shape each family draws.

    Cost grows as the fourth power of the domain dimension, so a round fixes
    the shape mix: the latency quantiles then move with the code, not with
    which sizes a seed happens to draw.  Unitary instances have five shapes
    against 24 and 25 for the other families, so each unitary shape appears
    five times to give every family about a third of the round.
    """
    max_dim = 3 if tiny else 6
    families = ("unitary", "padded-block", "classical")
    copies = {"unitary": max_dim - 1}
    lanes = []
    for index, kind in enumerate(families):
        rng = np.random.default_rng([seed, index])
        want = {key: copies.get(kind, 1) for key in _size_keys(kind, max_dim)}
        lane = []
        for _ in range(200 * len(want)):
            f, omega, g = props.disintegration_instance(kind, rng, max_dim=max_dim)
            key = (f.domain.blocks, f.codomain.blocks)
            if want.get(key, 0) > 0:
                want[key] -= 1
                lane.append((kind, f, omega, g))
                if not any(want.values()):
                    break
        else:
            raise RuntimeError(f"{kind}: could not draw every shape with seed {seed}")
        lanes.append(lane)
    return [[_chain_case(*item) for lane in lanes for item in lane]]


def _chain_case(kind, f, omega, g) -> Case:
    return Case(
        f"chain.{kind}",
        lambda: lambda fc=_copy(f), gc=_copy(g): qm.modularity_chain(fc, omega, gc),
        lambda r: _verdicts(r.disintegration, r.bayes, r.ae_det),
        ("pass", "pass", "pass"),
    )


# ---------------------------------------------------------------------------
# blocks: large algebras, no pair loops
# ---------------------------------------------------------------------------

_VARIANTS = 3   # distinct instances per kind; round r uses variant r % 3


def blocks_rounds(seed: int, tiny: bool) -> list[list[Case]]:
    """Per-block loops on big single blocks and on many 1x1 blocks."""
    ns = (2, 3) if tiny else (8, 12)
    ks = (4, 6) if tiny else (32, 64)
    tensor_n = 2 if tiny else 4
    rng = np.random.default_rng([seed, 10])
    rounds = []
    for _ in range(_VARIANTS):
        cases = []
        for n in ns:
            prob = _cpu_problem(n, rng)
            cases += [
                Case(f"blocks.is_cp.m{n}",
                     lambda p=prob: lambda fc=_copy(p.channel): qm.is_cp(fc),
                     _verdicts, ("pass",)),
                # left Bayes and unitality hold by construction for a
                # full-rank prior; right, star and CP depend on the channel
                Case(f"blocks.bayes_candidate.m{n}",
                     lambda p=prob: lambda pc=_fresh_problem(p): qm.bayes_candidate(pc),
                     _bayes_verdicts, ("pass", None, None, "pass", None)),
                Case(f"blocks.petz_unital.m{n}",
                     lambda p=prob: lambda pc=_fresh_problem(p): qm.is_unital(qm.petz_recovery(pc)),
                     _verdicts, ("pass",)),
            ]
        f = props.random_cpu_channel(tensor_n, tensor_n, rng)
        probes = [(alg.random_element(f.domain, rng).blocks[0],
                   alg.random_element(f.domain, rng).blocks[0]) for _ in range(2)]
        cases.append(Case(
            f"blocks.tensor.m{tensor_n}",
            lambda f=f: lambda fc=_copy(f): qm.tensor(fc, fc),
            lambda t, f=f, probes=probes: _tensor_verdict(t, f, probes), ("pass",)))
        for k in ks:
            prob = _classical_problem(k, rng)
            f_det, omega, g_det = _classical_disintegration(k, rng)
            cases += [
                Case(f"blocks.bayes_candidate.c{k}",
                     lambda p=prob: lambda pc=_fresh_problem(p): qm.bayes_candidate(pc),
                     _bayes_verdicts, ("pass",) * 5),
                Case(f"blocks.verify_disintegration.c{k}",
                     lambda f=f_det, o=omega, g=g_det:
                         lambda fc=_copy(f), gc=_copy(g): qm.verify_disintegration(fc, o, gc),
                     _verdicts, ("pass",)),
            ]
        rounds.append(cases)
    return rounds


def _fresh_problem(prob):
    return dataclasses.replace(prob, channel=_copy(prob.channel))


def _bayes_verdicts(r) -> tuple:
    return _verdicts(r.bayes_left, r.bayes_right, r.star, r.unital, r.cp)


def _cpu_problem(n: int, rng):
    f = props.random_cpu_channel(n, n, rng)
    omega = qm.state_from_density(alg.random_density(qm.AlgebraShape((n,)), rng))
    return qm.bayes_problem(f, omega)


def _classical_problem(k: int, rng):
    """A dense random kernel on k points with a full-support prior."""
    kernel = fs.stochastic(rng.dirichlet(np.ones(k), size=k).T.tolist())
    prior = fs.prob_vector(rng.dirichlet(np.ones(k)).tolist())
    return qm.bayes_problem(fs.embed(kernel), fs.embed_prob(prior))


def _classical_disintegration(k: int, rng):
    """A deterministic kernel, a full-support prior and its Bayes inverse."""
    image = rng.integers(0, k, size=k)
    kernel = fs.deterministic_kernel(lambda x: int(image[x]), k, k)
    prior = fs.prob_vector(rng.dirichlet(np.ones(k)).tolist())
    return fs.embed(kernel), fs.embed_prob(prior), fs.embed(fs.bayes_inverse(kernel, prior))


def _tensor_verdict(t: qm.Channel, f: qm.Channel, probes) -> tuple:
    """Check (F x F)(a x b) = F(a) x F(b) on random a, b with numpy alone.

    Both factors are single blocks, so the tensor algebra is one block and
    its coordinates are the row-major entries of the Kronecker product.
    """
    n = f.codomain.blocks[0]

    def image(a):
        return (f.matrix @ a.reshape(-1)).reshape(n, n)

    for a, b in probes:
        got = t.matrix @ np.kron(a, b).reshape(-1)
        want = np.kron(image(a), image(b)).reshape(-1)
        if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
            return ("fail",)
    return ("pass",)


# ---------------------------------------------------------------------------
# corpus: the fixtures through the CLI, and the randomized suites
# ---------------------------------------------------------------------------

# Suites that report a false failure on a few percent of seeds, so a run
# with such a seed would count every call of the suite as failed:
# - matrix-kernel: "pseudo-inverse satisfies the Moore-Penrose identities"
#   holds its worst deviation to an absolute 1e-10, which ill-conditioned
#   random draws exceed (seeds 23, 109);
# - bayes: "left Bayes maps report one-sided ..." fails whenever none of its
#   draws has a deficient prior, so nothing one-sided was seen (seeds 25,
#   61, 80, 119).
# They leave the workload until props.py is fixed; see bench/README.md.
_FLAKY_SUITES = ("matrix-kernel", "bayes")


def corpus_rounds(seed: int, tiny: bool) -> list[list[Case]]:
    """Every fixture through in-process ``cli.main`` and the props suites
    that pass on every seed.

    A suite's cost depends on the sizes its seed draws (``channel`` takes
    80 to 140 ms), so each call of a suite gets the next seed of a sequence
    drawn from the workload seed, and its mean over a run does not hang on
    one draw.
    """
    trials = 4 if tiny else 64
    fixtures = [
        Case(f"corpus.fixture.{name}", lambda name=name: lambda: _run_cli(name),
             _cli_verdict, (0, True, None))
        for name in corpus.registry_names()
    ]
    suites = [
        Case(f"corpus.suite.{name}",
             lambda name=name, seeds=_suite_seeds(seed, index):
                 lambda s=next(seeds): props.run_suite(name, seed=s, trials=trials),
             lambda r: (r.passed, tuple(c.passed for c in r.checks)), (True, None))
        for index, name in enumerate(props.suite_names()) if name not in _FLAKY_SUITES
    ]
    return [fixtures + suites]


def _suite_seeds(seed: int, index: int) -> Iterator[int]:
    """The seeds of one suite's successive calls: 32-bit ints, the same
    sequence for the same workload seed."""
    for n in itertools.count():
        yield int(np.random.SeedSequence([seed, index, n]).generate_state(1)[0])


def _run_cli(name: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", "run", name, "--format", "json"])
    return code, out.getvalue()


def _cli_verdict(result) -> tuple:
    code, text = result
    checks = tuple(c["pass"] for fx in json.loads(text)["fixtures"] for c in fx["checks"])
    return code, all(checks), checks
