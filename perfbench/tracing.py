"""Spans around the public functions of the six vertex_sheaf modules.

The tracer wraps the public functions listed in ``SPANS`` (plus
``ThetaParams.from_modulus``) and installs each wrapper at every binding
site in the package: ``cli.baxter_weights`` as well as
``elliptic.baxter_weights``, ``transfer.lax_odd`` as well as
``operators.lax_odd``.  Nested calls (transfer -> linalg, operators ->
elliptic) therefore nest as spans, and a span's self time is its
duration minus the time its child spans cover.  A function not listed
counts in its caller's self time.

A span is (name, start, end, parent span, check id).  Spans are kept in
flat arrays while the run lasts and written out when it ends.  Counts
derived from array sizes (bytes, flops, configurations) are recorded at
the same boundaries; they are computed, not measured.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

#: the program's modules, which are also the layer names
LAYERS = ("cli", "elliptic", "weights", "operators", "linalg", "transfer")

#: span name -> public functions of that name's module it covers
SPANS = {
    "cli.main": ("main",),
    "elliptic.baxter_weights": ("baxter_weights",),
    "elliptic.theta": ("theta_h", "theta_t"),
    "weights.sample_krinsky_pair": ("sample_krinsky_pair",),
    "weights.manifold_report": ("manifold_report",),
    # candidates the sampler tests; the denominator of its accept ratio
    "weights.free_fermion_residual": ("free_fermion_residual",),
    "operators.lax": (
        "lax_even", "lax_odd", "lax_asym_even", "lax_asym_odd", "lax_asym_odd_companion",
    ),
    "operators.sheaf_yang_baxter_residual": ("sheaf_yang_baxter_residual",),
    "operators.solve_intertwiner": ("solve_intertwiner",),
    "linalg.two_site_operator": ("two_site_operator",),
    "linalg.null_space": ("null_space",),
    "linalg.kron_chain": ("kron_chain",),
    "linalg.rel_commutator_norm": ("rel_commutator_norm",),
    "transfer.transfer_matrix": ("transfer_matrix",),
    "transfer.transfer_family": ("transfer_family",),
    "transfer.staggered_transfer_pair": ("staggered_transfer_pair",),
    "transfer.partition_trace": ("partition_trace",),
    "transfer.partition_enumerate": ("partition_enumerate",),
    "transfer.wu_kunz_check": ("wu_kunz_check",),
    "transfer.commutation_scan": ("commutation_scan",),
    "transfer.sigma_x_string": ("sigma_x_string",),
}

#: dense builds whose peak allocation tracemalloc measures (it sees numpy
#: buffers): span name -> (size argument, sites per unit of it).  Only
#: builds of at least _MEMORY_MIN_SITES sites are measured: tracemalloc
#: makes a 5-site build seven times slower, which would swamp the
#: small-build self time, while from 8 sites (a 1 MB result) on numpy
#: buffers dominate and the peak is the figure of interest.
_MEMORY = {
    "transfer.transfer_matrix": ("sites", 1),
    "transfer.transfer_family": ("max_sites", 1),
    "transfer.staggered_transfer_pair": ("pairs", 2),
}
_MEMORY_MIN_SITES = 8


def _matmuls_in_power(n: int) -> int:
    """Matrix products numpy.linalg.matrix_power spends on exponent n >= 1."""
    return n.bit_length() - 1 + bin(n).count("1") - 1


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _count_bytes_out(tracer, name, args, kwargs, result):
    mats = result if isinstance(result, (list, tuple)) else [result]
    tracer.counts[f"{name}.bytes_out"] += sum(t.matrix.nbytes for t in mats)


def _count_commutator(tracer, name, args, kwargs, result):
    d = np.shape(args[0])[0]
    tracer.counts[f"{name}.flops"] += 16 * d**3  # two complex d x d products


def _count_trace(tracer, name, args, kwargs, result):
    lattice = _arg(args, kwargs, 1, "lattice")
    d = 2**lattice.cols
    if _arg(args, kwargs, 2, "staggered", False):
        products = 1 + _matmuls_in_power(lattice.rows // 2)
    else:
        products = _matmuls_in_power(lattice.rows)
    tracer.counts[f"{name}.flops"] += 8 * d**3 * products


def _count_enumerate(tracer, name, args, kwargs, result):
    lattice = _arg(args, kwargs, 1, "lattice")
    tracer.counts[f"{name}.configs"] += 2 ** (2 * lattice.rows * lattice.cols)


def _count_kernel(tracer, name, args, kwargs, result):
    want = tracer.expect.get("kernel_dim")
    tracer.counts[f"{name}.kernel_dim_ok"] += int(want is not None and result[0] == want)


def _count_returned(tracer, name, args, kwargs, result):
    tracer.counts[f"{name}.returned"] += 1


_COUNTERS = {
    **{name: _count_bytes_out for name in _MEMORY},
    "linalg.rel_commutator_norm": _count_commutator,
    "transfer.partition_trace": _count_trace,
    "transfer.partition_enumerate": _count_enumerate,
    "operators.solve_intertwiner": _count_kernel,
    "weights.sample_krinsky_pair": _count_returned,
}
#: every count a counter can record, so that all of them read 0 when unused
_COUNTS = (
    *(f"{name}.bytes_out" for name in _MEMORY),
    "linalg.rel_commutator_norm.flops",
    "transfer.partition_trace.flops",
    "transfer.partition_enumerate.configs",
    "operators.solve_intertwiner.kernel_dim_ok",
    "weights.sample_krinsky_pair.returned",
    "cli.report_bytes",
)


class Tracer:
    """Install spans with :meth:`install`, remove them with :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.check = array("i")
        self._stack: list[int] = []
        self.check_id = -1
        self.expect: dict = {}
        self.counts = dict.fromkeys(_COUNTS, 0.0)
        self.peak_bytes = dict.fromkeys(_MEMORY, 0)
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._find_targets()

    @staticmethod
    def _find_targets() -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for each traced function.

        A function missing from its module is skipped; the run then fails
        its span-coverage check instead of crashing.
        """
        targets = []
        for name, attrs in SPANS.items():
            mod = importlib.import_module(f"vertex_sheaf.{name.split('.')[0]}")
            targets += [(name, mod, a, getattr(mod, a)) for a in attrs if hasattr(mod, a)]
        params = importlib.import_module("vertex_sheaf.elliptic").ThetaParams
        if "from_modulus" in vars(params):
            targets.append(("elliptic.ThetaParams.from_modulus", params, "from_modulus",
                            vars(params)["from_modulus"]))
        return targets

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._intern(name)
        counter = _COUNTERS.get(name)
        size_arg, sites_per_unit = _MEMORY.get(name, (None, 0))

        def span(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.check.append(tracer.check_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            own_tracing = (
                size_arg is not None
                and sites_per_unit * _arg(args, kwargs, 1, size_arg, 0) >= _MEMORY_MIN_SITES
                and not tracemalloc.is_tracing()
            )
            if own_tracing:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if own_tracing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes[name] = max(tracer.peak_bytes[name], peak)
            if counter is not None:
                counter(tracer, name, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        replace = {}
        for name, owner, attr, original in self._targets:
            if isinstance(original, classmethod):
                self._patch(owner, attr, original, classmethod(self._wrap(name, original.__func__)))
            else:
                replace[id(original)] = (original, self._wrap(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "vertex_sheaf" and not mod_name.startswith("vertex_sheaf."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, val, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The span table, one array per field."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "check": np.frombuffer(self.check, dtype=np.int32),
        }

    def summary(self, passes: int, traced_wall_s: float) -> dict[str, float]:
        """Per-pass calls, self time and counts of every span name, plus layer shares.

        ``traced_wall_s`` is the total wall time of the traced passes; the
        part of it no span covers is the harness's share.
        """
        s = self.spans()
        n_names = len(self.names)
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        covered = np.bincount(s["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - covered
        calls = np.bincount(s["name"], minlength=n_names)
        self_s = np.bincount(s["name"], weights=self_t, minlength=n_names)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] / passes
            out[f"{name}.self_s"] = self_s[nid] / passes
        for key, val in self.counts.items():
            out[key] = val / passes
        for name, peak in self.peak_bytes.items():
            out[f"{name}.peak_alloc_mb"] = peak / 2**20
        # derived ratios
        enum = "transfer.partition_enumerate"
        enum_s = out.get(f"{enum}.self_s", 0.0)
        out[f"{enum}.configs_per_s"] = out[f"{enum}.configs"] / enum_s if enum_s else 0.0
        solve = "operators.solve_intertwiner"
        solve_calls = out.get(f"{solve}.calls", 0.0)
        out[f"{solve}.kernel_dim_ok_ratio"] = (
            out[f"{solve}.kernel_dim_ok"] / solve_calls if solve_calls else 0.0
        )
        sampler = "weights.sample_krinsky_pair"
        if sampler in self._ids and "weights.free_fermion_residual" in self._ids:
            under = nested.copy()
            under[nested] = s["name"][s["parent"][nested]] == self._ids[sampler]
            tried = np.count_nonzero(under & (s["name"] == self._ids["weights.free_fermion_residual"]))
        else:
            tried = 0
        out[f"{sampler}.accept_ratio"] = (
            passes * out[f"{sampler}.returned"] / tried if tried else 0.0
        )
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0], dtype=int)
        by_layer = np.bincount(layer_of[s["name"]], weights=self_t, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            out[f"share.{layer}"] = by_layer[i] / traced_wall_s
        out["share.harness"] = 1.0 - by_layer.sum() / traced_wall_s
        return out
