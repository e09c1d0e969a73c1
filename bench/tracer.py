"""Layer trace for the benchmark, installed from outside the sga package.

The tracer wraps the public functions and methods of each layer and
patches the wrapper into every loaded ``sga`` module (and every
module-level dict, such as the suite registry) that refers to the
original, so the package itself is never edited.  Spans are aggregated
in memory by (name, parent span, N, dim): count, total seconds and self
seconds, where self is the span's duration minus the time of the spans
it caused.  Scalar arithmetic is counted only, because a span per
scalar operation would cost more than the operation.

``Tracer.metrics(passes)`` turns the aggregate into the per-layer
metrics listed in ``LAYER_METRICS``, per timed pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from workloads import IDENTITY_CHECKS

# The roundtrip workload's dimensions; per-N spans for these are reported
# as their own metrics, every (N, dim) row goes to the trace file.
PER_N = (8, 10)

IDENTITY_SUITES = tuple(IDENTITY_CHECKS)

CLI_COMMANDS = ("build", "tables", "verify", "decompose")

LAYER_METRICS = (
    [
        ("scalars.mul_calls", "count"),
        ("scalars.add_calls", "count"),
        ("scalars.is_zero_calls", "count"),
        ("matrices.matmul_calls", "count"),
        ("matrices.matmul_self_s", "s"),
        ("matrices.matmul_mults", "count"),
        ("matrices.neg_self_s", "s"),
        ("matrices.transpose_self_s", "s"),
        ("matrices.eq_self_s", "s"),
        ("matrices.entries_allocated", "count"),
        ("matrices.from_json_self_s", "s"),
        ("representation.builds", "count"),
        ("representation.build_self_s", "s"),
    ]
    + [(f"representation.build_self_s.N{n}", "s") for n in PER_N]
    + [
        ("representation.max_dim", "count"),
        ("representation.to_json_self_s", "s"),
        ("blades.verify_isomorphism_s", "s"),
    ]
    + [(f"blades.verify_isomorphism_s.N{n}", "s") for n in PER_N]
    + [
        ("blades.blade_matrix_calls", "count"),
        ("blades.blade_cache_hit_ratio", "ratio"),
        ("blades.blade_coefficient_calls", "count"),
        ("blades.useful_ratio", "ratio"),
        ("blades.decompose_multivector_self_s", "s"),
    ]
    + [(f"blades.decompose_multivector_self_s.N{n}", "s") for n in PER_N]
    + [
        ("blades.spinor_outer_decompose_self_s", "s"),
        ("blades.reconstruct_self_s", "s"),
        ("elements.multiply_calls", "count"),
        ("elements.multiply_self_s", "s"),
        ("symmetry.rotor_self_s", "s"),
        ("symmetry.conjugate_self_s", "s"),
        ("tables.rows", "count"),
        ("tables.reps_per_row", "ratio"),
        ("tables.metric_self_s", "s"),
        ("tables.commutation_self_s", "s"),
        ("tables.conjugation_self_s", "s"),
    ]
    + [(f"suites.{s}_s", "s") for s in IDENTITY_SUITES]
    + [(f"cli.{c}_self_s", "s") for c in CLI_COMMANDS]
    + [
        ("cli.output_bytes", "B"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _rep_tags(args, result):
    rep = args[0]
    return getattr(rep, "N", None), getattr(rep, "dim", None)


def _matrix_tags(args, result):
    return None, getattr(args[0], "nrows", None)


def _result_matrix_tags(args, result):
    return None, getattr(result, "nrows", None)


def _cli_tags(args, result):
    ns = args[0]
    if hasattr(ns, "spacelike"):
        return ns.spacelike + ns.timelike, None
    return None, None


def _no_tags(args, result):
    return None, None


def _sparse_mults(a, b):
    """Scalar products a sparsity-skipping a @ b performs: sum_k nnz(a[:, k]) * nnz(b[k, :])."""
    cols = Counter(j for _, j, _ in a.nonzero_items())
    rows = Counter(i for i, _, _ in b.nonzero_items())
    return sum(c * rows[k] for k, c in cols.items())


class Tracer:
    def __init__(self):
        self.stack = []  # one [name, child seconds] cell per open span
        self.spans = {}  # (name, parent, N, dim) -> [count, total_s, self_s]
        self.counts = Counter()
        self.max_dim = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, tags=_no_tags, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            cell = [name, 0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            n, dim = tags(args, result)
            key = (name, parent[0] if parent else None, n, dim)
            row = spans.get(key)
            if row is None:
                row = spans[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - cell[1]
            if after is not None:
                after(args, result)
            if parent is not None:
                # bookkeeping is charged to the child, so the parent's self time excludes it
                parent[1] += clock() - t0
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set_attr(self, owner, attr, value):
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def patch_function(self, orig, new):
        """Replace `orig` by `new` wherever an sga module or module-level dict holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sga" or name.startswith("sga."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set_attr(mod, attr, new)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is orig:
                            self._set_item(value, key, new)

    def install(self):
        from sga import blades, cli, elements, matrices, representation, scalars, suites, symmetry, tables

        counts = self.counts
        Scalar, Matrix = scalars.Scalar, matrices.Matrix
        Representation = representation.Representation
        is_zero = Scalar.is_zero

        for attr, key in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                          ("__radd__", "add"), ("is_zero", "is_zero")):
            self._set_attr(Scalar, attr, self.counter(f"scalars.{key}", vars(Scalar)[attr]))

        init = vars(Matrix)["__init__"]

        def matrix_init(m, *args, **kwargs):
            init(m, *args, **kwargs)
            counts["matrices.entries_allocated"] += m.nrows * m.ncols

        self._set_attr(Matrix, "__init__", matrix_init)

        def count_mults(args, result):
            counts["matrices.matmul_mults"] += _sparse_mults(args[0], args[1])

        for attr, name, after in (("__matmul__", "matmul", count_mults), ("__neg__", "neg", None),
                                  ("transpose", "transpose", None), ("__eq__", "eq", None)):
            self._set_attr(Matrix, attr, self.span(f"matrices.{name}", vars(Matrix)[attr],
                                                   _matrix_tags, after))
        from_json = vars(Matrix)["from_json"].__func__
        self._set_attr(Matrix, "from_json",
                       classmethod(self.span("matrices.from_json", from_json, _result_matrix_tags)))

        def track_dim(args, result):
            self.max_dim = max(self.max_dim, args[0].dim)

        self._set_attr(Representation, "__init__",
                       self.span("representation.build", vars(Representation)["__init__"],
                                 _rep_tags, track_dim))
        self._set_attr(Representation, "to_json",
                       self.span("representation.to_json", vars(Representation)["to_json"], _rep_tags))

        def blade_matrix(rep, blade, _orig=blades.blade_matrix):
            cache = getattr(rep, "_blade_cache", None)
            before = len(cache) if cache is not None else None
            m = _orig(rep, blade)
            counts["blades.blade_matrix"] += 1
            if cache is not None:
                counts["blades.blade_cache_lookups"] += 1
                counts["blades.blade_cache_hits"] += len(cache) == before
            return m

        def blade_coefficient(rep, blade, m, _orig=blades.blade_coefficient):
            c = _orig(rep, blade, m)
            counts["blades.blade_coefficient"] += 1
            counts["blades.blade_coefficient_nonzero"] += not is_zero(c)
            return c

        self.patch_function(blades.blade_matrix, blade_matrix)
        self.patch_function(blades.blade_coefficient, blade_coefficient)

        def count_rows(args, result):
            counts["tables.rows"] += len(result)

        spans = [
            (blades.verify_isomorphism, "blades.verify_isomorphism", _rep_tags, None),
            (blades.decompose_multivector, "blades.decompose_multivector", _rep_tags, None),
            (blades.spinor_outer_decompose, "blades.spinor_outer_decompose", _rep_tags, None),
            (blades.reconstruct_from_outer, "blades.reconstruct", _rep_tags, None),
            (blades.reconstruct_from_blades, "blades.reconstruct", _rep_tags, None),
            (elements.multiply, "elements.multiply", _no_tags, None),
            (symmetry.plane_rotor, "symmetry.rotor", _rep_tags, None),
            (symmetry.bivector_rotor, "symmetry.rotor", _rep_tags, None),
            (symmetry.rotate, "symmetry.rotor", _rep_tags, None),
            (symmetry.conjugate, "symmetry.conjugate", _rep_tags, None),
            (tables.metric_symmetry_table, "tables.metric", _no_tags, count_rows),
            (tables.gamma_commutation_table, "tables.commutation", _no_tags, count_rows),
            (tables.conjugation_symmetry_table, "tables.conjugation", _no_tags, count_rows),
        ]
        registry = {**suites.SUITES, **suites.EXTRA_SUITES}
        spans += [(registry[s], f"suites.{s}", _no_tags, None) for s in IDENTITY_SUITES]
        spans += [(getattr(cli, f"cmd_{c}"), f"cli.{c}", _cli_tags, None) for c in CLI_COMMANDS]
        for fn, name, tags, after in spans:
            self.patch_function(fn, self.span(name, fn, tags, after))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------------

    def rows(self):
        """Every aggregated span, for the trace file."""
        return [
            {"span": name, "parent": parent, "N": n, "dim": dim,
             "count": c, "total_s": total, "self_s": self_s}
            for (name, parent, n, dim), (c, total, self_s) in sorted(
                self.spans.items(), key=lambda kv: tuple(str(x) for x in kv[0]))
        ]

    def _sum(self, name, column, **where):
        col = {"count": 0, "total": 1, "self": 2}[column]
        out = 0
        for (span, parent, n, dim), row in self.spans.items():
            if span != name:
                continue
            if "N" in where and n != where["N"]:
                continue
            if "parent_prefix" in where and not (parent or "").startswith(where["parent_prefix"]):
                continue
            out += row[col]
        return out

    def metrics(self, passes, output_bytes):
        """Per-layer metrics per traced pass; ratios and maxima are not divided."""
        c, s = self.counts, self._sum
        rows = c["tables.rows"]
        per_pass = {
            "scalars.mul_calls": c["scalars.mul"],
            "scalars.add_calls": c["scalars.add"],
            "scalars.is_zero_calls": c["scalars.is_zero"],
            "matrices.matmul_calls": s("matrices.matmul", "count"),
            "matrices.matmul_self_s": s("matrices.matmul", "self"),
            "matrices.matmul_mults": c["matrices.matmul_mults"],
            "matrices.neg_self_s": s("matrices.neg", "self"),
            "matrices.transpose_self_s": s("matrices.transpose", "self"),
            "matrices.eq_self_s": s("matrices.eq", "self"),
            "matrices.entries_allocated": c["matrices.entries_allocated"],
            "matrices.from_json_self_s": s("matrices.from_json", "self"),
            "representation.builds": s("representation.build", "count"),
            "representation.build_self_s": s("representation.build", "self"),
            "representation.to_json_self_s": s("representation.to_json", "self"),
            "blades.verify_isomorphism_s": s("blades.verify_isomorphism", "total"),
            "blades.blade_matrix_calls": c["blades.blade_matrix"],
            "blades.blade_coefficient_calls": c["blades.blade_coefficient"],
            "blades.decompose_multivector_self_s": s("blades.decompose_multivector", "self"),
            "blades.spinor_outer_decompose_self_s": s("blades.spinor_outer_decompose", "self"),
            "blades.reconstruct_self_s": s("blades.reconstruct", "self"),
            "elements.multiply_calls": s("elements.multiply", "count"),
            "elements.multiply_self_s": s("elements.multiply", "self"),
            "symmetry.rotor_self_s": s("symmetry.rotor", "self"),
            "symmetry.conjugate_self_s": s("symmetry.conjugate", "self"),
            "tables.rows": rows,
            "tables.metric_self_s": s("tables.metric", "self"),
            "tables.commutation_self_s": s("tables.commutation", "self"),
            "tables.conjugation_self_s": s("tables.conjugation", "self"),
            "cli.output_bytes": output_bytes,
        }
        for n in PER_N:
            per_pass[f"representation.build_self_s.N{n}"] = s("representation.build", "self", N=n)
            per_pass[f"blades.verify_isomorphism_s.N{n}"] = s("blades.verify_isomorphism", "total", N=n)
            per_pass[f"blades.decompose_multivector_self_s.N{n}"] = s(
                "blades.decompose_multivector", "self", N=n)
        for suite in IDENTITY_SUITES:
            per_pass[f"suites.{suite}_s"] = s(f"suites.{suite}", "total")
        for cmd in CLI_COMMANDS:
            per_pass[f"cli.{cmd}_self_s"] = s(f"cli.{cmd}", "self")
        out = {name: value / passes for name, value in per_pass.items()}

        lookups = c["blades.blade_cache_lookups"]
        out["blades.blade_cache_hit_ratio"] = c["blades.blade_cache_hits"] / lookups if lookups else 0.0
        coeffs = c["blades.blade_coefficient"]
        out["blades.useful_ratio"] = c["blades.blade_coefficient_nonzero"] / coeffs if coeffs else 0.0
        table_builds = s("representation.build", "count", parent_prefix="tables.")
        out["tables.reps_per_row"] = table_builds / rows if rows else 0.0
        out["representation.max_dim"] = self.max_dim
        return out
