"""Span recording around the layer entry points of endotransfer.

The wrappers live here, in the benchmark, and are installed by replacing
module and class attributes.  A name bound by ``from .x import f`` is looked
up in the calling module, so it is patched there, not where it is defined.

Each span records its name, start, end, parent span and pair id; spans
recorded while one ``verify_identity`` call runs share that pair's id.  A
layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import time
from array import array

# (module, attribute, span name, self-time metric, call-count metric or None).
# Attributes of TransferFactorEngine are given as "TransferFactorEngine.<name>".
LAYERS = (
    ("scenario", "parse_scenario", "scenario.parse", "scenario.parse_s", None),
    ("scenario", "build_scenario", "scenario.build", "scenario.build_s", None),
    ("scenario", "build_root_datum", "rootdata.build_root_datum", "rootdata.build_root_datum_s", None),
    ("scenario", "real_weyl_group", "realform.real_weyl_group", "realform.real_weyl_group_s", None),
    ("endoscopy", "enumerate_weyl", "rootdata.enumerate_weyl", "rootdata.enumerate_weyl_s", None),
    ("endoscopy", "TransferFactorEngine.__init__", "endoscopy.engine_init", "endoscopy.engine_init_s", None),
    ("endoscopy", "h1", "cohomology.h1", "cohomology.h1_s", "cohomology.h1_calls"),
    ("endoscopy", "quotient_torus_lattice", "cohomology.quotient_torus_lattice", "cohomology.quotient_torus_lattice_s", None),
    ("endoscopy", "cocycle_class", "cohomology.cocycle_class", "cohomology.cocycle_class_s", "cohomology.cocycle_class_calls"),
    ("endoscopy", "tate_nakayama_pair", "cohomology.tate_nakayama_pair", "cohomology.tate_nakayama_pair_s", "cohomology.tate_nakayama_pair_calls"),
    ("endoscopy", "tits_multiply", "tits.multiply", "tits.multiply_s", "tits.multiply_calls"),
    # tits.inverse reaches multiply through its own module global.
    ("tits", "multiply", "tits.multiply", None, None),
    ("endoscopy", "TransferFactorEngine.delta_i", "endoscopy.delta_i", "endoscopy.delta_i_s", "endoscopy.delta_i_calls"),
    ("endoscopy", "TransferFactorEngine.delta_ii", "endoscopy.delta_ii", "endoscopy.delta_ii_s", "endoscopy.delta_ii_calls"),
    ("endoscopy", "TransferFactorEngine.delta_iii", "endoscopy.delta_iii", "endoscopy.delta_iii_s", "endoscopy.delta_iii_calls"),
    ("endoscopy", "TransferFactorEngine.relative_factor", "endoscopy.relative_factor", "endoscopy.relative_factor_s", "endoscopy.relative_factor_calls"),
    ("distributions", "rossmann_kernel", "distributions.kernel", "distributions.kernel_s", "distributions.kernel_calls"),
    ("distributions", "weyl_sign", "rootdata.weyl_sign", "rootdata.weyl_sign_s", "rootdata.weyl_sign_calls"),
    ("distributions", "explicit_term", "distributions.pairing", "distributions.pairing_s", "distributions.explicit_term_calls"),
    ("distributions", "d_gh", "distributions.d_gh", "distributions.d_gh_s", None),
    ("distributions", "d_tilde_gh", "distributions.d_tilde_gh", "distributions.d_tilde_gh_s", None),
    ("verify", "verify_identity", "distributions.verify_identity", "distributions.verify_identity_s", "distributions.verify_identity_calls"),
    ("verify", "sample_regular_vector", "verify.sample", "verify.sample_s", None),
    ("verify", "run_verify", "verify.run_verify", "verify.run_verify_s", None),
    ("verify", "emit_report", "verify.emit", "verify.emit_s", None),
    ("verify", "parse_machine_report", "verify.parse_report", "verify.parse_report_s", None),
)

ROOT_SPAN = "bench.scenario"
PAIR_SPAN = "distributions.verify_identity"


class Tracer:
    """Spans kept in memory as parallel arrays, one entry per call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pair = array("i")
        self._stack: list[int] = []
        self._pair_id = -1
        self._pairs = 0
        self.scenario_index = -1
        self.kernel_terms = 0
        self.weights: set = set()
        self.delta_i_w: set = set()
        self.delta_iii_w: set = set()

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        if name == PAIR_SPAN:
            self._pair_id = self._pairs
            self._pairs += 1
        self.pair.append(self._pair_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if name == PAIR_SPAN:
            self._pair_id = -1

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx, name)
            tracer.observe(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def observe(self, name: str, args, out) -> None:
        """Counters taken at the layer boundary, outside the timed span."""
        if name == "distributions.kernel":
            self.kernel_terms += len(out.terms)
        elif name == "endoscopy.relative_factor":
            d = args[1]
            self.weights.add((self._pair_id, d.w.matrix, d.x_h.coords, d.x_g.coords))
        elif name == "endoscopy.delta_i":
            self.delta_i_w.add((self.scenario_index, args[1].w.matrix))
        elif name == "endoscopy.delta_iii":
            self.delta_iii_w.add((self.scenario_index, args[1].w.matrix))

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            nm = self.names[self.name[i]]
            selfs[nm] = selfs.get(nm, 0.0) + (self.end[i] - self.start[i]) - child[i]
            calls[nm] = calls.get(nm, 0) + 1
        return selfs, calls

    def inclusive(self, name: str) -> float:
        """Summed duration of the outermost spans with this name."""
        nid = self._name_id.get(name)
        total = 0.0
        for i in range(len(self.start)):
            if self.name[i] == nid:
                p = self.parent[i]
                if p < 0 or self.name[p] != nid:
                    total += self.end[i] - self.start[i]
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,pair\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.pair[i]}\n"
                )


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def install(tracer: Tracer, modules: dict) -> None:
    """Replace every entry point of LAYERS by its traced wrapper."""
    for mod_name, attr, span, _, _ in LAYERS:
        owner = modules[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr)))
