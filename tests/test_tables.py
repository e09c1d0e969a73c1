"""Classification tables: anchors, hand-derived signs, periodicity."""

import pytest
from hypothesis import given, settings
from strategies import rep_configs
from test_kernel import plain

from sga.representation import RepConfig, Signature, build_representation
from sga.scalars import I, ONE
from sga.tables import (
    COMMUTATION_FIELDS,
    METRIC_FIELDS,
    ConjugationRow,
    MetricRow,
    commutation_sign,
    conjugation_symmetry_table,
    gamma_commutation_table,
    metric_symmetry_table,
    period8_check,
    render_csv,
    render_markdown,
    rows_to_json,
)

# Independent oracle for even dimensions: the block recursion multiplies the
# square sign by (-1)^(j-1) (standard) or (-1)^j (alternative) at step j.


def recursion_sq_sign(pairs, alternative=False):
    sign = 1
    for j in range(1, pairs + 1):
        step = (-1) ** j if alternative else (-1) ** (j - 1)
        sign *= step
    return sign


@pytest.fixture(scope="module")
def metric_rows():
    return {r.N: r for r in metric_symmetry_table(17)}


@pytest.fixture(scope="module")
def commutation_rows():
    return {r.N: r for r in gamma_commutation_table(17)}


def test_metric_signs_match_recursion_oracle(metric_rows):
    for n in range(2, 18, 2):
        assert metric_rows[n].sq_standard == recursion_sq_sign(n // 2)
        assert metric_rows[n].sq_alternative == recursion_sq_sign(n // 2, True)
    # projected odd dimensions share the alternative sign of one dimension down
    for n in range(3, 18, 2):
        assert metric_rows[n].sq_standard == recursion_sq_sign((n - 1) // 2, True)
        assert metric_rows[n].sq_standard == metric_rows[n].sq_alternative


def test_metric_anchors(metric_rows):
    assert metric_rows[3].sq_standard == -1  # antisymmetric
    assert metric_rows[4].sq_standard == -1  # antisymmetric
    assert metric_rows[2].sq_standard == 1


def test_commutation_signs_match_hand_values(commutation_rows):
    # standard: (-1)^(n-1) over the pair count; alternative: (-1)^n
    for n in range(2, 18, 2):
        pairs = n // 2
        assert commutation_rows[n].sign_standard == (-1) ** (pairs - 1)
        assert commutation_rows[n].sign_alternative == (-1) ** pairs
    assert commutation_rows[3].sign_standard == -1
    assert commutation_rows[2].sign_standard == 1


def test_commutation_sign_uniformity():
    # odd projected dimensions: the sign is (-1)^pairs, uniform over all
    # vectors including the projected final one
    rep3 = build_representation(RepConfig(Signature(spacelike=3)))
    assert commutation_sign(rep3, rep3.eps) == -1
    rep5 = build_representation(RepConfig(Signature(spacelike=5)))
    assert commutation_sign(rep5, rep5.eps) == 1


def test_period8(metric_rows, commutation_rows):
    report = period8_check(list(metric_rows.values()))
    assert report["ok"] and report["pairs_compared"] == 9
    report = period8_check(list(commutation_rows.values()))
    assert report["ok"]


def test_period8_needs_range():
    rows = metric_symmetry_table(5)
    with pytest.raises(ValueError):
        period8_check(rows)
    with pytest.raises(ValueError):
        period8_check(rows[:1])


def test_period8_names_each_differing_value_field():
    """The keys and the sampled signatures are not compared; every other field is, with its values named."""
    rows = [MetricRow(n, 1, -1) for n in range(1, 11)]
    rows[8] = MetricRow(9, -1, 1)
    assert period8_check(rows) == {
        "pairs_compared": 2,
        "violations": ["sq_standard differs between keys 1 and 9: 1 vs -1",
                       "sq_alternative differs between keys 1 and 9: -1 vs 1"],
        "ok": False,
    }
    rows = [ConjugationRow(d, ((d + 1, 1),), 1, 1) for d in range(-4, 5)]
    assert period8_check(rows)["ok"]
    rows[8] = ConjugationRow(4, ((6, 2),), 1, -1)
    assert period8_check(rows)["violations"] == ["sym_alternative differs between keys -4 and 4: 1 vs -1"]


def test_conjugation_rows_match_metric_at_the_difference(metric_rows):
    rows = conjugation_symmetry_table(-4, 12)
    assert len(rows) == 17
    for row in rows:
        n_equiv = ((row.difference - 1) % 8) + 1
        assert row.sym_standard == metric_rows[n_equiv].sq_standard
        assert row.sym_alternative == metric_rows[n_equiv].sq_alternative
    report = period8_check(rows)
    assert report["ok"]


def test_conjugation_anchor_and_cross_signature():
    rows = {r.difference: r for r in conjugation_symmetry_table(2, 3)}
    assert rows[2].sym_standard == 1  # symmetric conjugation operator
    assert rows[3].sym_standard == -1
    # the row computation itself compared (K, M) and (K+1, M+1)
    assert len(rows[2].signatures) == 2


def test_renderers_smoke(metric_rows):
    rows = list(metric_rows.values())
    md = render_markdown(rows, "Metric symmetry", METRIC_FIELDS, "N")
    assert "N mod 8" in md and "|" in md and "!" not in md
    csv_text = render_csv(rows, METRIC_FIELDS, "N")
    assert csv_text.splitlines()[0] == "N,sq_standard,sq_alternative"
    blob = rows_to_json(rows)
    assert blob[0]["N"] == 1 and "sq_standard" in blob[0]


def test_commutation_markdown(commutation_rows):
    md = render_markdown(
        list(commutation_rows.values()), "Transpose sign", COMMUTATION_FIELDS, "N"
    )
    assert "standard" in md and "alternative" in md


# Oracle for all three tables: the same signs computed with Matrix
# operations on plain copies of the operators' rows, not on their words.


def matrix_sign(a, b):
    """+1 if a == b, -1 if a == -b, 0 otherwise, by Matrix comparison."""
    a, b = plain(a), plain(b)
    if a == b:
        return 1
    if a == -b:
        return -1
    return 0


def matrix_square_sign(m):
    m = plain(m)
    s = (m @ m).scalar_multiple_of_identity()
    return 1 if s == ONE else -1 if s == -ONE else 0


def matrix_commutation_signs(rep, eps):
    """The signs s of gamma^T eps = s eps gamma over every axis, on plain copies of the spacelike forms.

    A timelike axis's spacelike form is its gamma times -i.
    """
    eps = plain(eps)
    forms = (rep.gamma(a).scale(-I) if rep.signature.is_timelike(a) else rep.gamma(a)
             for a in range(1, rep.N + 1))
    return {matrix_sign(g.transpose() @ eps, eps @ g) for g in map(plain, forms)}


def matrix_commutation_sign(rep, eps):
    [sign] = matrix_commutation_signs(rep, eps)
    return sign


def test_tables_match_matrix_oracle():
    metric = metric_symmetry_table(12)
    commutation = gamma_commutation_table(12)
    for n, m_row, c_row in zip(range(1, 13), metric, commutation):
        rep = build_representation(RepConfig(Signature(spacelike=n)))
        assert (m_row.N, c_row.N) == (n, n)
        for eps, sq, sign in (
            (rep.eps_std, m_row.sq_standard, c_row.sign_standard),
            (rep.eps_alt, m_row.sq_alternative, c_row.sign_alternative),
        ):
            assert matrix_square_sign(eps) == sq
            assert matrix_sign(plain(eps).transpose(), eps) == sq
            assert matrix_commutation_sign(rep, eps) == sign
    for row in conjugation_symmetry_table(-4, 10):
        assert len(row.signatures) == 2
        for k, m in row.signatures:
            assert k + m <= 12
            for metric_name, sym in (("standard", row.sym_standard),
                                     ("alternative", row.sym_alternative)):
                rep = build_representation(
                    RepConfig(Signature(spacelike=k, timelike=m), metric=metric_name))
                assert matrix_sign(plain(rep.C).transpose(), rep.C) == sym


def test_commutation_sign_takes_the_matrix_or_the_monomial():
    rep = build_representation(RepConfig(Signature(spacelike=6)))
    for name in ("eps", "eps_std", "eps_alt"):
        eps = getattr(rep, name)
        sign = commutation_sign(rep, eps)
        assert sign == matrix_commutation_sign(rep, eps)
        assert commutation_sign(rep, -eps) == sign  # a negated operator is still an operator
    with pytest.raises(ValueError):
        commutation_sign(rep, plain(rep.eps_std))  # a dense Matrix has no words


@settings(max_examples=40, deadline=None)
@given(rep_configs(max_n=10))
def test_commutation_sign_matches_the_oracle_in_every_signature_and_mode(config):
    """Timelike axes and the odd modes: the sign is the oracle's, or, where the oracle finds none, a ValueError."""
    rep = build_representation(config)
    for eps in (rep.eps, rep.eps_std, rep.eps_alt):
        signs = matrix_commutation_signs(rep, eps)
        if signs in ({1}, {-1}):
            assert commutation_sign(rep, eps) == signs.pop()
        else:
            with pytest.raises(ValueError, match="no uniform sign"):
                commutation_sign(rep, eps)


def test_a_missing_sign_in_the_commutation_table_is_an_internal_fault(monkeypatch):
    """A spacelike metric always has a uniform sign, so the table does not pass the ValueError on as a usage error."""
    import sga.tables

    def no_sign(rep, eps):
        raise ValueError("no uniform sign")

    monkeypatch.setattr(sga.tables, "commutation_sign", no_sign)
    with pytest.raises(AssertionError, match="internal fault: no uniform sign"):
        gamma_commutation_table(4)


@pytest.mark.parametrize("call", [
    lambda: metric_symmetry_table(0),
    lambda: gamma_commutation_table(3, n_min=4),
    lambda: conjugation_symmetry_table(3, 2),
])
def test_empty_ranges_are_rejected(call):
    with pytest.raises(ValueError, match="empty"):
        call()
