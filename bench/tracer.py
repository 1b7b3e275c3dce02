"""Spans around the calls into wittcalc's layers, recorded from outside.

The tracer wraps each public function the per-layer metrics name by patching
every module attribute that holds it, so callers that imported the name
(``wittcalc.delta.frobenius`` as well as ``wittcalc.zq.frobenius``) reach the
wrapper.  Each span is kept in memory as (name, start, end, parent, op) on
the CPU clock; counts are taken at the same boundaries.  ``write`` stores the
spans when the run ends and ``metrics`` reduces them to the per-layer
figures, including each layer's self time: a span's duration minus the time
its child spans cover.
"""

import gzip
import sys
import time
from array import array

# Layer functions, by the module that defines them.
TARGETS = (
    ("polyarith", "vec_mul"),
    ("polyarith", "vec_inv"),
    ("conway", "conway_polynomial"),
    ("zq", "frobenius"),
    ("zq", "frobenius_inv"),
    ("zq", "teichmuller"),
    ("zq", "digits"),
    ("delta", "fermat_quotient"),
    ("delta", "padic_exp"),
    ("delta", "padic_log"),
    ("delta", "psi"),
    ("delta", "eval_delta_function"),
    ("solvers", "solve_exponential"),
    ("solvers", "enumerate_constants"),
    ("solvers", "verify_exponential"),
    ("solvers", "solve_difference"),
    ("solvers", "solve_matrix_linear"),
    ("relations", "find_relation"),
    ("relations", "lll_reduce"),
    ("cli", "run"),
)
PARAMS = "zq.PadicParams"
OP = "bench.op"
LAYERS = ("bench", "polyarith", "conway", "zq", "delta", "solvers", "relations", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = []
        self.current_op = -1
        self.active = False
        self.counts = {}
        self.searches = []
        self._conway_depth = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def _close(self, idx):
        self.end[idx] = time.process_time()
        self.stack.pop()

    def count(self, key, n=1):
        if self.current_op >= 0:
            self.counts[key] = self.counts.get(key, 0) + n

    # -- operations ------------------------------------------------------

    def begin_op(self, op_id):
        self.current_op = op_id
        self.active = True
        return self._open(self._id(OP))

    def end_op(self, idx):
        self._close(idx)
        self.active = False
        self.current_op = -1
        return self.end[idx] - self.start[idx]

    # -- patching --------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(state, args, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch the wittcalc modules now in ``sys.modules``."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "wittcalc" or n.startswith("wittcalc."))]
        by_name = {m.__name__: m for m in mods}
        for modname, fname in TARGETS:
            home = by_name.get("wittcalc." + modname)
            if home is None:
                continue
            orig = getattr(home, fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig, *self._hooks(fname, orig))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
        cls = by_name["wittcalc.zq"].PadicParams
        cls.__init__ = self.wrap(PARAMS, cls.__init__)

    def _hooks(self, fname, orig):
        tracer = self
        if fname == "teichmuller":
            def before(args):
                return args[0].coeffs in args[0].params._teich

            def after(hit, args, result, idx):
                tracer.count("zq.teichmuller_hits", int(hit))
            return before, after
        if fname == "conway_polynomial":
            def before(args):
                tracer._conway_depth += 1
                return orig.cache_info().misses

            def after(misses, args, result, idx):
                tracer._conway_depth -= 1
                if tracer._conway_depth == 0 and orig.cache_info().misses > misses:
                    tracer.searches.append(tracer.end[idx] - tracer.start[idx])
            return before, after
        if fname == "lll_reduce":
            def after(state, args, result, idx):
                tracer.count("relations.lll_dim_sum", len(args[0]))
            return None, after
        if fname == "find_relation":
            def after(state, args, result, idx):
                tracer.count("relations.hits", int(result is not None))
            return None, after
        return None, None

    # -- results ---------------------------------------------------------

    def write(self, path):
        """Spans as text, one per line: name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("# counts " + " ".join(f"{k}={v}" for k, v in sorted(self.counts.items())) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")

    def metrics(self, n_ops):
        """Per-layer figures as {name: (value, unit)}.  Counts are per
        operation of the timed phase; times are per call over every span,
        set-up included; ``<layer>.self_ms`` is self time per operation."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        conway_child = [0.0] * n
        conway_id = self._ids.get("conway.conway_polynomial")
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
                if self.name[i] == conway_id:
                    conway_child[par] += dur[i]
        calls, total, timed_calls = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        params_excl = []
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            if self.op[i] >= 0:
                timed_calls[name] = timed_calls.get(name, 0) + 1
                layer_self[name.split(".")[0]] += dur[i] - child[i]
            if name == PARAMS:
                params_excl.append(dur[i] - conway_child[i])

        def mean(name, scale):
            return total.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

        def per_op(name):
            return timed_calls.get(name, 0) / n_ops

        def ratio(key, name):
            return self.counts.get(key, 0) / timed_calls[name] if timed_calls.get(name) else 0.0

        out = {
            "polyarith.vec_mul_calls": (per_op("polyarith.vec_mul"), "count"),
            "polyarith.vec_mul_us": (mean("polyarith.vec_mul", 1e6), "us"),
            "polyarith.vec_inv_calls": (per_op("polyarith.vec_inv"), "count"),
            "conway.search_ms": (sum(self.searches) / len(self.searches) * 1e3
                                 if self.searches else 0.0, "ms"),
            "zq.params_ms": (sum(params_excl) / len(params_excl) * 1e3
                             if params_excl else 0.0, "ms"),
            "zq.frobenius_us": (mean("zq.frobenius", 1e6), "us"),
            "zq.digits_us": (mean("zq.digits", 1e6), "us"),
            "zq.teichmuller_calls": (per_op("zq.teichmuller"), "count"),
            "zq.teichmuller_hit_ratio": (ratio("zq.teichmuller_hits", "zq.teichmuller"), "ratio"),
            "delta.fermat_quotient_us": (mean("delta.fermat_quotient", 1e6), "us"),
            "delta.exp_ms": (mean("delta.padic_exp", 1e3), "ms"),
            "delta.log_ms": (mean("delta.padic_log", 1e3), "ms"),
            "delta.psi_ms": (mean("delta.psi", 1e3), "ms"),
            "delta.eval_delta_function_ms": (mean("delta.eval_delta_function", 1e3), "ms"),
            "solvers.solve_exponential_ms": (mean("solvers.solve_exponential", 1e3), "ms"),
            "solvers.enumerate_constants_ms": (mean("solvers.enumerate_constants", 1e3), "ms"),
            "solvers.verify_exponential_ms": (mean("solvers.verify_exponential", 1e3), "ms"),
            "solvers.solve_difference_ms": (mean("solvers.solve_difference", 1e3), "ms"),
            "solvers.solve_matrix_linear_ms": (mean("solvers.solve_matrix_linear", 1e3), "ms"),
            "relations.find_relation_ms": (mean("relations.find_relation", 1e3), "ms"),
            "relations.lll_reduce_ms": (mean("relations.lll_reduce", 1e3), "ms"),
            "relations.lll_dim": (ratio("relations.lll_dim_sum", "relations.lll_reduce"), "count"),
            "relations.hits_per_query": (ratio("relations.hits", "relations.find_relation"), "ratio"),
            "cli.run_ms": (mean("cli.run", 1e3), "ms"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (layer_self[layer] / n_ops * 1e3, "ms")
        out["trace.spans_per_op"] = (sum(timed_calls.values()) / n_ops, "count")
        return out
