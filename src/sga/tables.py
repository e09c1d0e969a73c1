"""Mod-8 classification tables, computed from the built operators.

Three tables are generated from first principles and never hard-coded:

  * metric table: the sign of eps^2 (equivalently the symmetry of eps)
    for both metric variants, per total dimension N;
  * commutation table: the single global sign s with gamma^T eps =
    s eps gamma over all basis vectors, per N and metric variant;
  * conjugation table: the symmetry of the conjugation operator per
    signature, which depends only on K - M mod 8.

Every sign is computed on the representation's operators (eps, the
generators and C), which are ``Monomial`` words: products,
transposes and equality of Pauli strings, with -1 tested as the phase
i**2.  No row is built.

The period-8 checker asserts row equality at keys eight apart over a
range of at least nine consecutive values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .matrices import Monomial
from .representation import build_representation


@dataclass(frozen=True)
class MetricRow:
    N: int
    sq_standard: int
    sq_alternative: int

    @property
    def key(self):
        return self.N


@dataclass(frozen=True)
class CommutationRow:
    N: int
    sign_standard: int
    sign_alternative: int

    @property
    def key(self):
        return self.N


@dataclass(frozen=True)
class ConjugationRow:
    difference: int  # K - M
    signatures: tuple
    sym_standard: int
    sym_alternative: int

    @property
    def key(self):
        return self.difference


def _sign(a, b, failure):
    """+1 if the operators a == b, -1 if a == -b; otherwise an AssertionError."""
    sign = a.sign_against(b)
    if not sign:
        raise AssertionError(failure)
    return sign


def _symmetry_sign(m):
    return _sign(m.transpose(), m, "matrix is neither symmetric nor antisymmetric")


def _keys(lo, hi, name):
    """range(lo, hi + 1); a ValueError if it is empty, since a table needs a row."""
    if hi < lo:
        raise ValueError(f"the {name} range {lo}..{hi} is empty")
    return range(lo, hi + 1)


def metric_symmetry_table(n_max, n_min=1):
    """Sign of eps^2 per dimension; equals the symmetry sign of eps."""
    rows = []
    for n in _keys(n_min, n_max, "N"):
        rep = build_representation(spacelike=n)
        eps_std, eps_alt = rep.eps_std, rep.eps_alt
        sq_std = eps_std.square_sign()  # 0 if not +-identity, which no symmetry sign equals
        sq_alt = eps_alt.square_sign()
        if _symmetry_sign(eps_std) != sq_std or _symmetry_sign(eps_alt) != sq_alt:
            raise AssertionError("metric symmetry disagrees with its square")
        rows.append(MetricRow(n, sq_std, sq_alt))
    return rows


def commutation_sign(rep, eps):
    """The global sign s with gamma^T eps = s eps gamma for every vector.

    `eps` is a metric operator, a ``Monomial`` such as ``rep.eps``; a
    Matrix of any other type is a ValueError.  The vectors are the
    representation's own, ``rep.gamma(a)``: a timelike one carries a
    factor i on both sides of the law, so it has the sign of its
    spacelike form.  Where no one sign holds for every vector, as for
    ``eps_alt`` of an ``embed_scalar_n`` representation at odd N, the
    result is a ValueError that says so.
    """
    if not isinstance(eps, Monomial):
        raise ValueError("commutation_sign needs a metric operator (a Monomial), not a dense Matrix")
    signs = {(g.transpose() @ eps).sign_against(eps @ g) for g in map(rep.gamma, range(1, rep.N + 1))}
    if len(signs) != 1 or 0 in signs:
        raise ValueError(f"the vector transpose law has no uniform sign for this metric at N={rep.N}")
    return signs.pop()


def gamma_commutation_table(n_max, n_min=1):
    rows = []
    for n in _keys(n_min, n_max, "N"):
        rep = build_representation(spacelike=n)
        try:
            row = CommutationRow(n, commutation_sign(rep, rep.eps_std), commutation_sign(rep, rep.eps_alt))
        except ValueError as exc:
            # both metrics of a spacelike representation have a uniform sign
            raise AssertionError(f"internal fault: {exc}") from exc
        rows.append(row)
    return rows


def _conjugation_symmetry(spacelike, timelike, metric):
    rep = build_representation(spacelike=spacelike, timelike=timelike, metric=metric)
    return _symmetry_sign(rep.C)


def conjugation_symmetry_table(d_min, d_max, samples_per_row=2):
    """Symmetry of the conjugation operator, keyed by K - M.

    Each row is computed for `samples_per_row` distinct signatures with
    the same difference and the agreement is asserted, so dependence on
    K - M alone is verified rather than assumed.
    """
    rows = []
    for d in _keys(d_min, d_max, "K-M"):
        m0 = max(0, -d)
        if d + 2 * m0 < 1:
            m0 += 1
        sigs = tuple((d + m, m) for m in range(m0, m0 + samples_per_row))
        syms_std = [_conjugation_symmetry(k, m, "standard") for k, m in sigs]
        syms_alt = [_conjugation_symmetry(k, m, "alternative") for k, m in sigs]
        if len(set(syms_std)) != 1 or len(set(syms_alt)) != 1:
            raise AssertionError(
                f"conjugation symmetry is not constant across signatures with K-M={d}"
            )
        rows.append(ConjugationRow(d, sigs, syms_std[0], syms_alt[0]))
    return rows


def period8_check(rows):
    """Verify row(key) == row(key + 8) over the supplied rows.

    Requires at least nine consecutive keys; returns a report dict with
    any violations listed.
    """
    by_key = {r.key: r for r in rows}
    keys = sorted(by_key)
    if len(keys) < 9 or keys != list(range(keys[0], keys[0] + len(keys))):
        raise ValueError("period-8 check needs >= 9 consecutive keys")
    violations = []
    compared = 0
    for k in keys:
        if k + 8 not in by_key:
            continue
        compared += 1
        a, b = by_key[k], by_key[k + 8]
        for f in fields(a):
            if f.name in ("N", "difference", "signatures"):
                continue
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if va != vb:
                violations.append(f"{f.name} differs between keys {k} and {k + 8}: {va} vs {vb}")
    return {"pairs_compared": compared, "violations": violations, "ok": not violations}


# -- rendering -----------------------------------------------------------------


def _sign_char(s):
    return "+" if s > 0 else "-"


def render_markdown(rows, title, value_fields, key_name):
    """Paper-style layout: one column per key mod 8, verified periodic."""
    keys = sorted({r.key for r in rows})
    by_mod = {}
    for r in rows:
        by_mod.setdefault(r.key % 8, []).append(r)
    lines = [f"### {title}", ""]
    header = [f"{key_name} mod 8"] + [str(m) for m in range(8)]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for field_name, label in value_fields:
        cells = [label]
        for m in range(8):
            group = by_mod.get(m, [])
            values = {getattr(r, field_name) for r in group}
            if not group:
                cells.append("")
            elif len(values) == 1:
                cells.append(_sign_char(values.pop()))
            else:
                cells.append("!")  # aperiodic entry; should not happen
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(f"({key_name} range {keys[0]}..{keys[-1]}, computed exactly)")
    return "\n".join(lines)


def render_csv(rows, value_fields, key_name):
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([key_name] + [f for f, _ in value_fields])
    for r in sorted(rows, key=lambda r: r.key):
        writer.writerow([r.key] + [getattr(r, f) for f, _ in value_fields])
    return buf.getvalue()


def rows_to_json(rows):
    return [asdict(r) for r in sorted(rows, key=lambda r: r.key)]

METRIC_FIELDS = (("sq_standard", "standard"), ("sq_alternative", "alternative"))
COMMUTATION_FIELDS = (("sign_standard", "standard"), ("sign_alternative", "alternative"))
CONJUGATION_FIELDS = (("sym_standard", "standard"), ("sym_alternative", "alternative"))
