"""Seeded check lists for the three benchmark workloads.

A check is a dict with an integer ``id``, a ``kind`` and an ``expect``
block that the verdict validator judges the result against:

* ``kind == "cli"``: ``argv`` is handed to ``vertex_sheaf.cli.main``;
* ``kind == "spinflip"``: the string identity T_od = S T_ev for every
  chain length up to ``sites`` at symmetric ``weights``;
* ``kind == "stagprod"``: staggered-product commutation on the Krinsky
  pair drawn by ``sample_krinsky_pair(sample_seed)`` at ``pairs`` pairs.

Everything here is plain Python driven by ``random.Random(seed)``: the
same seed gives the same check list, and the program only ever sees the
generated argv and weights.  One *pass* is the whole list; a run repeats
passes until its time is up.
"""

from __future__ import annotations

import random

#: thresholds the theory predicts, mirroring the CLI defaults
RESIDUAL_TOL = 1e-10
KERNEL_TOL = 1e-8
COMMUTATOR_TOL = 1e-9
ENUMERATION_TOL = 1e-11
SPIN_FLIP_TOL = 1e-12
#: the detuned Yang-Baxter control and the non-commuting staggered
#: factors must stay at least this far from zero
CONTROL_FLOOR = 1e-3

NAMES = ("local-checks", "transfer-scan", "torus-partition")

#: tail percentile per workload: the highest of 50/75/90/95/99/99.9 that
#: leaves at least ten checks beyond it at the smallest check count a run
#: of the benchmark's length produces on a 2-CPU machine
TAIL_PERCENTILE = {"local-checks": 99.0, "transfer-scan": 75.0, "torus-partition": 75.0}

#: spans each workload exists to stress; a traced run in which one of them
#: records no call is not correct, so a renamed public function cannot
#: silently zero its metrics
REQUIRED_SPANS = {
    "local-checks": (
        "cli.main", "elliptic.ThetaParams.from_modulus", "elliptic.baxter_weights",
        "elliptic.theta", "weights.sample_krinsky_pair", "weights.manifold_report",
        "operators.lax", "operators.sheaf_yang_baxter_residual",
        "operators.solve_intertwiner", "linalg.two_site_operator", "linalg.null_space",
        "transfer.transfer_matrix",
    ),
    "transfer-scan": (
        "linalg.rel_commutator_norm", "linalg.kron_chain", "transfer.transfer_matrix",
        "transfer.transfer_family", "transfer.staggered_transfer_pair",
        "transfer.commutation_scan", "transfer.sigma_x_string",
    ),
    "torus-partition": (
        "transfer.partition_trace", "transfer.partition_enumerate", "transfer.wu_kunz_check",
    ),
}


def _f(x: float) -> str:
    return f"{x:.6f}"


def _csv(values) -> str:
    return ",".join(_f(v) for v in values)


def _cli_weights(rng: random.Random, n: int) -> list[float]:
    # the CLI's own draw: uniform on [0.2, 1.4]
    return [round(rng.uniform(0.2, 1.4), 6) for _ in range(n)]


def _canaries(b: "_Builder") -> None:
    """One small check through every traced public function.

    Appended to every workload, so that each per-layer metric is measured
    on each workload instead of reading a constant 0.  They add about
    50 ms to a pass.
    """
    rng = b.rng
    pt = ["--k", _f(rng.uniform(0.3, 0.7)), "--lam", _f(rng.uniform(0.5, 0.9))]
    mu1, mu2 = rng.uniform(0.05, 0.3), rng.uniform(0.4, 0.65)
    b.cli(["param", *pt, "--mu", _f(mu1)], exit=0, check="param")
    b.cli(["ybe", *pt, "--mu1", _f(mu1), "--mu2", _f(mu1 / 2), "--parities", "all"],
          exit=0, check="ybe", records=8)
    b.cli(["solve-r", *pt, "--mu1", _f(mu1), "--mu2", _f(mu2)],
          exit=0, check="solve-r", kernel_dim=1)
    b.cli(["commute", *pt, "--mus", _csv((mu1, mu2)), "--sites", "4", "--kinds", "even,odd"],
          exit=0, check="commute")
    b.cli(["partition", "--model", "odd", "--rows", "2", "--cols", "2", "--staggered",
           "--weights", _csv(_cli_weights(rng, 8)), "--backend", "both"],
          exit=0, check="partition")
    b.cli(["wukunz", "--model", "even", "--rows", "2", "--cols", "2",
           "--weights", _csv(_cli_weights(rng, 8))], exit=0, check="wukunz")
    b.add({"kind": "spinflip", "weights": _cli_weights(rng, 4), "sites": 4, "expect": {}})
    b.add({"kind": "stagprod", "sample_seed": rng.randrange(1 << 30), "pairs": 2,
           "expect": {}})


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.checks: list[dict] = []

    def cli(self, argv: list[str], **expect) -> None:
        self.add({"kind": "cli", "argv": argv, "expect": expect})

    def add(self, check: dict) -> None:
        check["id"] = len(self.checks)
        self.checks.append(check)


def local_checks(seed: int, pairs: int = 100) -> "_Builder":
    """About ten cheap checks per seeded spectral pair, over many pairs.

    Commutation is always even-versus-odd, cycling 4, 5 and 6 sites, so
    the slowest regular group (6 sites) holds 3% of the checks and the p99
    tail lies inside it rather than on the edge between two groups.  The
    Krinsky sampler's latency is heavy-tailed over seeds (median 0.7 ms,
    p90 13 ms, p99 65 ms: Newton restarts), so it runs on every fourth
    pair only; at one call per pair its tail alone would set p99 and
    carry the seed-to-seed scatter of a few extreme draws.
    """
    b = _Builder(seed)
    rng = b.rng
    for i in range(pairs):
        k = rng.uniform(0.3, 0.7)
        lam = rng.uniform(0.5, 0.9)
        mu1 = rng.uniform(0.05, 0.3)
        mu2 = rng.uniform(0.05, 0.3)
        pt = ["--k", _f(k), "--lam", _f(lam)]
        b.cli(["param", *pt, "--mu", _f(mu1)], exit=0, check="param")
        b.cli(["param", *pt, "--mu", _f(mu2)], exit=0, check="param")
        ybe = ["ybe", *pt, "--mu1", _f(mu1), "--mu2", _f(mu2), "--parities", "all"]
        b.cli(ybe, exit=0, check="ybe", records=8)
        detune = rng.uniform(0.02, 0.1)
        b.cli([*ybe, "--detune", _f(detune)], exit=1, check="ybe-detuned", records=8)
        on1 = rng.uniform(0.05, 0.3)
        on2 = rng.uniform(0.4, 0.65)
        b.cli(
            ["solve-r", *pt, "--mu1", _f(on1), "--mu2", _f(on2)],
            exit=0, check="solve-r", kernel_dim=1,
        )
        b.cli(
            ["solve-r", "--weights1", _csv(_cli_weights(rng, 4)),
             "--weights2", _csv(_cli_weights(rng, 4))],
            exit=0, check="solve-r", kernel_dim=0,
        )
        mus = sorted(rng.uniform(0.05, 0.65) for _ in range(2))
        b.cli(
            ["commute", *pt, "--mus", _csv(mus), "--sites", str(4 + i % 3),
             "--kinds", "even,odd"],
            exit=0, check="commute",
        )
        model = ("even", "odd")[i % 2]
        for cols in (2, 3):
            b.cli(
                ["partition", "--model", model, "--rows", "2", "--cols", str(cols),
                 "--weights", _csv(_cli_weights(rng, 8)), "--backend", "both"],
                exit=0, check="partition",
            )
        b.cli(
            ["wukunz", "--model", model, "--rows", "2", "--cols", "2",
             "--weights", _csv(_cli_weights(rng, 8))],
            exit=0, check="wukunz",
        )
        if i % 4 == 0:
            b.cli(
                ["sample-krinsky", "--seed", str(rng.randrange(1 << 30))],
                exit=0, check="sample-krinsky",
            )
    return b


def transfer_scan(seed: int, big: int = 10) -> "_Builder":
    """Dense transfer-matrix builds and commutators at 8 to ``big`` sites.

    Four 9-site spin-flip checks make the group the median falls in once
    the eight canaries sit below it; the 9-site commutators hold p75.
    """
    b = _Builder(seed)
    rng = b.rng
    mid = big - 1
    k = rng.uniform(0.3, 0.7)
    lam = rng.uniform(0.5, 0.9)
    pt = ["--k", _f(k), "--lam", _f(lam)]

    def mus(n):
        return _csv(sorted(rng.uniform(0.05, 0.65) for _ in range(n)))

    for kinds in ("even,even", "odd,odd", "even,odd"):
        b.cli(["commute", *pt, "--mus", mus(2), "--sites", str(mid), "--kinds", kinds],
              exit=0, check="commute")
    b.cli(["commute", *pt, "--mus", mus(3), "--sites", str(big - 2),
           "--kinds", "stagprod,stagprod"], exit=0, check="commute")
    for sites in (mid, mid, mid, mid, big):
        weights = [round(rng.uniform(0.2, 1.5), 6) for _ in range(4)]
        b.add({"kind": "spinflip", "weights": weights, "sites": sites, "expect": {}})
    b.add({"kind": "stagprod", "sample_seed": rng.randrange(1 << 30),
           "pairs": big // 2, "expect": {}})
    return b


def torus_partition(seed: int, cols: int = 10, enum_checks: int = 10) -> "_Builder":
    """Both partition backends, sized so that neither has under a third of the time.

    Trace: a 20 x cols uniform torus, an 8 x cols staggered torus and a
    4 x cols Wu-Kunz check.  Enumeration: ``enum_checks`` 20-edge tori
    against the trace, Wu-Kunz on 2 x 4 and the odd model on 3 x 3.
    """
    b = _Builder(seed)
    rng = b.rng

    def part(model, rows, c, backend, staggered=False, **expect):
        argv = ["partition", "--model", model, "--rows", str(rows), "--cols", str(c),
                "--weights", _csv(_cli_weights(rng, 8)), "--backend", backend]
        if staggered:
            argv.append("--staggered")
        b.cli(argv, exit=0, check="partition", **expect)

    part("even", 20, cols, "trace")
    part("odd", 8, cols, "trace", staggered=True)
    b.cli(["wukunz", "--model", "odd", "--rows", "4", "--cols", str(cols),
           "--weights", _csv(_cli_weights(rng, 8)), "--backend", "trace"],
          exit=0, check="wukunz")
    for i in range(enum_checks):
        rows, c = ((2, 5), (5, 2))[i % 2]
        part(("even", "odd")[(i // 2) % 2], rows, c, "both")
    for model in ("even", "odd"):
        b.cli(["wukunz", "--model", model, "--rows", "2", "--cols", "4",
               "--weights", _csv(_cli_weights(rng, 8)), "--backend", "enumerate"],
              exit=0, check="wukunz")
    for _ in range(2):
        part("odd", 3, 3, "enumerate", z_zero=True)
    return b


def build(name: str, seed: int, smoke: bool = False) -> list[dict]:
    """The check list of one workload; ``smoke`` shrinks every size."""
    if name == "local-checks":
        b = local_checks(seed, pairs=2 if smoke else 100)
    elif name == "transfer-scan":
        b = transfer_scan(seed, big=6 if smoke else 10)
    elif name == "torus-partition":
        b = torus_partition(seed, cols=4 if smoke else 10, enum_checks=2 if smoke else 10)
    else:
        raise ValueError(f"unknown workload {name!r}")
    _canaries(b)
    return b.checks
